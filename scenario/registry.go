package scenario

import (
	"fmt"
	"sort"
	"strings"
	"sync"
)

// Registry is a named, ordered collection of scenarios. Registration
// order is preserved (it is the order `respira fig -list` and `-exp all`
// use); duplicate names are rejected.
type Registry struct {
	mu     sync.RWMutex
	byName map[string]Scenario
	order  []string
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{byName: make(map[string]Scenario)}
}

// Register adds s; a duplicate or empty name is an error.
func (r *Registry) Register(s Scenario) error {
	name := s.Name()
	if name == "" {
		return fmt.Errorf("scenario: cannot register an unnamed scenario")
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if _, dup := r.byName[name]; dup {
		return fmt.Errorf("scenario: duplicate scenario name %q", name)
	}
	r.byName[name] = s
	r.order = append(r.order, name)
	return nil
}

// MustRegister is Register that panics on error, for init-time use.
func (r *Registry) MustRegister(s Scenario) {
	if err := r.Register(s); err != nil {
		panic(err)
	}
}

// Get returns the scenario registered under name. An unknown name is an
// error that lists every registered scenario.
func (r *Registry) Get(name string) (Scenario, error) {
	r.mu.RLock()
	defer r.mu.RUnlock()
	if s, ok := r.byName[name]; ok {
		return s, nil
	}
	return nil, fmt.Errorf("scenario: unknown scenario %q; registered scenarios: %s",
		name, strings.Join(r.order, ", "))
}

// Names returns the registered names in registration order.
func (r *Registry) Names() []string {
	r.mu.RLock()
	defer r.mu.RUnlock()
	return append([]string(nil), r.order...)
}

// Scenarios returns every scenario in registration order.
func (r *Registry) Scenarios() []Scenario {
	r.mu.RLock()
	defer r.mu.RUnlock()
	out := make([]Scenario, len(r.order))
	for i, n := range r.order {
		out[i] = r.byName[n]
	}
	return out
}

// Select resolves a list of names, in input order. Any unknown name
// fails the whole selection with the registered-scenario listing.
func (r *Registry) Select(names []string) ([]Scenario, error) {
	out := make([]Scenario, 0, len(names))
	for _, n := range names {
		s, err := r.Get(n)
		if err != nil {
			return nil, err
		}
		out = append(out, s)
	}
	return out, nil
}

// WithTag returns the scenarios carrying tag, in registration order.
func (r *Registry) WithTag(tag string) []Scenario {
	var out []Scenario
	for _, s := range r.Scenarios() {
		for _, t := range s.Tags() {
			if t == tag {
				out = append(out, s)
				break
			}
		}
	}
	return out
}

// Tags returns the sorted set of all tags in use.
func (r *Registry) Tags() []string {
	seen := map[string]bool{}
	for _, s := range r.Scenarios() {
		for _, t := range s.Tags() {
			seen[t] = true
		}
	}
	out := make([]string, 0, len(seen))
	for t := range seen {
		out = append(out, t)
	}
	sort.Strings(out)
	return out
}

// Default is the process-wide registry the repro package populates at
// init time and `respira fig` serves.
var Default = NewRegistry()

// MustRegister adds s to the Default registry, panicking on error.
func MustRegister(s Scenario) { Default.MustRegister(s) }
