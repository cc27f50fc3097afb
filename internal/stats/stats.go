// Package stats provides the small statistical helpers used by the
// fault-injection campaign and the ablation experiments: means,
// standard deviations, Wilson confidence intervals for estimated
// probabilities (permeability values are proportions n_err/n_inj), and
// rank-agreement via Kendall's tau (used to check the paper's Section
// 6 claim that module orderings are maintained across error models).
package stats

import (
	"errors"
	"math"
	"sort"
)

// ErrEmpty is returned when a computation needs at least one sample.
var ErrEmpty = errors.New("stats: empty sample")

// Mean returns the arithmetic mean of xs.
func Mean(xs []float64) (float64, error) {
	if len(xs) == 0 {
		return 0, ErrEmpty
	}
	sum := 0.0
	for _, x := range xs {
		sum += x
	}
	return sum / float64(len(xs)), nil
}

// StdDev returns the sample standard deviation (n-1 denominator) of
// xs. A single sample has zero deviation.
func StdDev(xs []float64) (float64, error) {
	if len(xs) == 0 {
		return 0, ErrEmpty
	}
	if len(xs) == 1 {
		return 0, nil
	}
	m, _ := Mean(xs)
	ss := 0.0
	for _, x := range xs {
		d := x - m
		ss += d * d
	}
	return math.Sqrt(ss / float64(len(xs)-1)), nil
}

// Interval is a two-sided confidence interval.
type Interval struct {
	Low, High float64
}

// WilsonInterval returns the Wilson score interval for a proportion
// with successes out of trials at the given z value (1.96 for 95%).
// It is well-behaved for proportions near 0 and 1, which permeability
// estimates frequently are (many pairs are exactly 0.000 or 1.000).
func WilsonInterval(successes, trials int, z float64) (Interval, error) {
	if trials <= 0 {
		return Interval{}, errors.New("stats: trials must be positive")
	}
	if successes < 0 || successes > trials {
		return Interval{}, errors.New("stats: successes out of range")
	}
	n := float64(trials)
	p := float64(successes) / n
	z2 := z * z
	denom := 1 + z2/n
	centre := p + z2/(2*n)
	margin := z * math.Sqrt(p*(1-p)/n+z2/(4*n*n))
	low := (centre - margin) / denom
	high := (centre + margin) / denom
	if low < 0 {
		low = 0
	}
	if high > 1 {
		high = 1
	}
	return Interval{Low: low, High: high}, nil
}

// RankOf returns, for each name, its 1-based rank when scores are
// ordered descending. Equal scores share the smallest rank of the tie
// group ("competition" ranking: 1, 2, 2, 4).
func RankOf(scores map[string]float64) map[string]int {
	type kv struct {
		name  string
		score float64
	}
	list := make([]kv, 0, len(scores))
	for n, s := range scores {
		list = append(list, kv{n, s})
	}
	sort.Slice(list, func(a, b int) bool {
		if list[a].score != list[b].score {
			return list[a].score > list[b].score
		}
		return list[a].name < list[b].name
	})
	ranks := make(map[string]int, len(list))
	for i, e := range list {
		rank := i + 1
		if i > 0 && e.score == list[i-1].score {
			rank = ranks[list[i-1].name]
		}
		ranks[e.name] = rank
	}
	return ranks
}

// KendallTau computes Kendall's rank-correlation coefficient (tau-a)
// between two score maps over the same key set. It returns an error if
// the key sets differ or have fewer than two elements. tau = 1 means
// identical ordering, -1 fully reversed.
func KendallTau(a, b map[string]float64) (float64, error) {
	if len(a) != len(b) {
		return 0, errors.New("stats: score maps have different sizes")
	}
	keys := make([]string, 0, len(a))
	for k := range a {
		if _, ok := b[k]; !ok {
			return 0, errors.New("stats: score maps have different keys")
		}
		keys = append(keys, k)
	}
	if len(keys) < 2 {
		return 0, errors.New("stats: need at least two keys")
	}
	sort.Strings(keys)
	concordant, discordant := 0, 0
	for i := 0; i < len(keys); i++ {
		for j := i + 1; j < len(keys); j++ {
			da := a[keys[i]] - a[keys[j]]
			db := b[keys[i]] - b[keys[j]]
			prod := da * db
			switch {
			case prod > 0:
				concordant++
			case prod < 0:
				discordant++
			}
		}
	}
	pairs := len(keys) * (len(keys) - 1) / 2
	return float64(concordant-discordant) / float64(pairs), nil
}

// Percentile returns the p-quantile (0 <= p <= 1) of xs using the
// nearest-rank method on a sorted copy. p=0 is the minimum, p=1 the
// maximum.
func Percentile(xs []float64, p float64) (float64, error) {
	sorted := make([]float64, len(xs))
	copy(sorted, xs)
	sort.Float64s(sorted)
	return PercentileSorted(sorted, p)
}

// PercentileSorted is Percentile over a sample already sorted
// ascending, read in place without a copy.
func PercentileSorted(sorted []float64, p float64) (float64, error) {
	if len(sorted) == 0 {
		return 0, ErrEmpty
	}
	if p < 0 || p > 1 {
		return 0, errors.New("stats: percentile must be in [0,1]")
	}
	if p == 0 {
		return sorted[0], nil
	}
	rank := int(math.Ceil(p*float64(len(sorted)))) - 1
	if rank < 0 {
		rank = 0
	}
	if rank >= len(sorted) {
		rank = len(sorted) - 1
	}
	return sorted[rank], nil
}

// MinMax returns the smallest and largest value of xs.
func MinMax(xs []float64) (minVal, maxVal float64, err error) {
	if len(xs) == 0 {
		return 0, 0, ErrEmpty
	}
	minVal, maxVal = xs[0], xs[0]
	for _, x := range xs[1:] {
		if x < minVal {
			minVal = x
		}
		if x > maxVal {
			maxVal = x
		}
	}
	return minVal, maxVal, nil
}
