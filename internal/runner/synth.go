package runner

// Declarative (DSL-compiled) campaign instances: a topology document
// loaded from disk becomes a registry Definition indistinguishable
// from the built-in ones — listable, tierable, journalable and
// distributable, with the campaign tiers taken from the document's own
// `campaign` section.

import (
	"fmt"
	"os"

	"propane/internal/campaign"
	"propane/internal/synth"
)

// Register adds a definition to the instance registry. It fails on an
// empty name, a nil Config, or a name collision with an existing
// instance (built-in or previously registered), so a loaded document
// cannot silently shadow "paper".
func Register(d Definition) error {
	if d.Name == "" {
		return fmt.Errorf("runner: cannot register a definition without a name")
	}
	if d.Config == nil {
		return fmt.Errorf("runner: definition %q has no Config constructor", d.Name)
	}
	regMu.Lock()
	defer regMu.Unlock()
	if _, dup := registry[d.Name]; dup {
		return fmt.Errorf("runner: instance %q is already registered", d.Name)
	}
	registry[d.Name] = d
	return nil
}

// Unregister removes a runtime-registered instance, reporting whether
// it existed. It exists so long-lived processes (and tests) can
// retire loaded documents; nothing stops it from removing a built-in,
// so callers should pass names they registered themselves.
func Unregister(name string) bool {
	regMu.Lock()
	defer regMu.Unlock()
	if _, ok := registry[name]; !ok {
		return false
	}
	delete(registry, name)
	return true
}

// LoadSynthFile parses and compiles a declarative topology document
// (YAML or JSON) into a registry Definition. The definition's tiers
// resolve against the document's campaign section, so a document
// without a "full" tier simply rejects -tier full with a clear error.
func LoadSynthFile(path string) (Definition, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return Definition{}, fmt.Errorf("runner: reading topology %s: %w", path, err)
	}
	d, err := LoadSynthBytes(data, "")
	if err != nil {
		return Definition{}, fmt.Errorf("runner: %s: %w", path, err)
	}
	if d.Description == "" {
		d.Description = fmt.Sprintf("declarative target compiled from %s", path)
	}
	return d, nil
}

// LoadSynthBytes compiles an in-memory topology document into a
// registry Definition. A non-empty name overrides the document's own
// spec name — the campaign service registers API-submitted documents
// under content-derived names, so two submissions of byte-identical
// documents resolve to the same instance (and therefore the same
// config digest and persistent-memo scope) regardless of what the
// documents call themselves.
func LoadSynthBytes(data []byte, name string) (Definition, error) {
	spec, err := synth.Parse(data)
	if err != nil {
		return Definition{}, err
	}
	compiled, err := synth.Compile(spec)
	if err != nil {
		return Definition{}, err
	}
	if len(spec.Campaign) == 0 {
		return Definition{}, fmt.Errorf("document declares no campaign tiers")
	}
	if name == "" {
		name = spec.Name
	}
	return Definition{
		Name:        name,
		Description: spec.Description,
		Config: func(tier Tier) (campaign.Config, error) {
			return compiled.Config(string(tier))
		},
	}, nil
}

// RegisterSynthFile loads a topology document and registers it.
func RegisterSynthFile(path string) (Definition, error) {
	d, err := LoadSynthFile(path)
	if err != nil {
		return Definition{}, err
	}
	if err := Register(d); err != nil {
		return Definition{}, err
	}
	return d, nil
}
