package main

// reference is a campaign's committed expected output.
type reference struct {
	// digest is runner.RecordSetDigest over the campaign's records.
	digest string
	// nonZeroPaths counts the TOC2 backtrack tree's non-zero paths
	// (fixed-matrix campaigns).
	nonZeroPaths int
	// scheduled counts the runs the adaptive planner schedules.
	scheduled int
}

// The single-node outputs of the paper campaigns behind matrix and
// fleet (paperRequest), recorded with singleNode; TestReferences
// recomputes them.
var (
	matrixRef = reference{digest: "05e8dabbf164154887276e9137691766b1c4da360fbf6460da1fc13f2dc873c2", nonZeroPaths: 10}
	fleetRef  = reference{digest: "cc78f5f666abeca224e83d014d966ad88349bd255377e7001c93cb015b3e3aef", scheduled: 9984}
)
