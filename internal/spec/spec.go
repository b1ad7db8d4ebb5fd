// Package spec is the shared machinery behind every component
// registry's configuration grammar: a component spec is
//
//	name?key=value&key=value
//
// with URL query syntax after the name — "hybrid?cv=2&range=4h" for a
// policy, "coldstart?q=50:75:99" for a metrics sink, a bare "binpack"
// for a placement. Params carries the parsed
// parameters to a builder with typed accessors that record which keys
// were consumed, and Build — the only way to a Params — rejects specs
// with leftover (misspelled) keys, so a typo fails fast instead of
// silently configuring the default.
package spec

import (
	"fmt"
	"math"
	"net/url"
	"sort"
	"strconv"
	"strings"
	"time"
)

// Registry is the name -> builder table behind one kind of component
// ("policy", "placement", "sink"). New is the only place a component
// spec is taken apart, so every registry rejects unknown names and
// leftover keys the same way, and no builder can be reached around
// the leftover-key check. The table is fixed when the registry is
// built.
type Registry[T any] struct {
	unknown, badSpec string // error prefixes
	builders         map[string]func(*Params) (T, error)
}

// NewRegistry returns the registry of builders whose errors start with
// the given prefixes: unknown for an unregistered name ("cluster:
// unknown placement"), badSpec for a spec that fails to build
// ("cluster: placement spec").
func NewRegistry[T any](unknown, badSpec string, builders map[string]func(*Params) (T, error)) *Registry[T] {
	return &Registry[T]{unknown: unknown, badSpec: badSpec, builders: builders}
}

// Names returns the registered names, sorted.
func (r *Registry[T]) Names() []string {
	names := make([]string, 0, len(r.builders))
	for n := range r.builders {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// New builds the component a spec names ("hybrid?cv=2" is builder
// "hybrid" over the query "cv=2"; a spec without '?' is all name).
func (r *Registry[T]) New(s string) (T, error) {
	name, query, _ := strings.Cut(s, "?")
	b, ok := r.builders[name]
	if !ok {
		var zero T
		return zero, fmt.Errorf("%s %q (registered: %v)", r.unknown, name, r.Names())
	}
	v, err := Build(query, b)
	if err != nil {
		return v, fmt.Errorf("%s %q: %w", r.badSpec, s, err)
	}
	return v, nil
}

// Build parses a raw query, hands the parameters to build and then
// rejects every key no accessor consumed. It is the only way to a
// *Params, so the leftover-key check cannot be forgotten: registries
// go through it in New, and the two grammars that carry a query
// without a registry name ("gen:apps=3", "fail@1h:node=2") call it
// directly.
func Build[T any](query string, build func(*Params) (T, error)) (T, error) {
	var zero T
	p, err := parse(query)
	if err != nil {
		return zero, err
	}
	v, err := build(p)
	if err != nil {
		return zero, err
	}
	if left := p.Unused(); len(left) > 0 {
		return zero, fmt.Errorf("unknown parameters %v (known: %v)", left, p.Known())
	}
	return v, nil
}

func parse(query string) (*Params, error) {
	vals, err := url.ParseQuery(query)
	if err != nil {
		return nil, err
	}
	return &Params{vals: vals, used: map[string]bool{}}, nil
}

// Params carries a spec's parsed parameters to a builder. Typed
// accessors record which keys were consumed; Build rejects specs with
// leftover (misspelled) keys afterwards via Unused.
type Params struct {
	vals  url.Values
	used  map[string]bool
	known map[string]bool
}

// Duration returns the named parameter parsed by time.ParseDuration,
// or def when absent.
func (p *Params) Duration(key string, def time.Duration) (time.Duration, error) {
	s, ok := p.take(key)
	if !ok {
		return def, nil
	}
	d, err := time.ParseDuration(s)
	if err != nil {
		return 0, fmt.Errorf("parameter %s: %w", key, err)
	}
	return d, nil
}

// Float returns the named float parameter, or def when absent. A NaN
// is rejected, since it passes every range check written with < and >.
func (p *Params) Float(key string, def float64) (float64, error) {
	s, ok := p.take(key)
	if !ok {
		return def, nil
	}
	return parseFloat(key, s)
}

func parseFloat(key, s string) (float64, error) {
	f, err := strconv.ParseFloat(s, 64)
	if err != nil {
		return 0, fmt.Errorf("parameter %s: %w", key, err)
	}
	if math.IsNaN(f) {
		return 0, fmt.Errorf("parameter %s: NaN is not a number", key)
	}
	return f, nil
}

// Int returns the named integer parameter, or def when absent.
func (p *Params) Int(key string, def int) (int, error) {
	s, ok := p.take(key)
	if !ok {
		return def, nil
	}
	n, err := strconv.Atoi(s)
	if err != nil {
		return 0, fmt.Errorf("parameter %s: %w", key, err)
	}
	return n, nil
}

// Uint64 returns the named unsigned integer parameter, or def when
// absent.
func (p *Params) Uint64(key string, def uint64) (uint64, error) {
	s, ok := p.take(key)
	if !ok {
		return def, nil
	}
	n, err := strconv.ParseUint(s, 10, 64)
	if err != nil {
		return 0, fmt.Errorf("parameter %s: %w", key, err)
	}
	return n, nil
}

// Bool returns the named boolean parameter (true/false, on/off, 1/0,
// yes/no), or def when absent.
func (p *Params) Bool(key string, def bool) (bool, error) {
	s, ok := p.take(key)
	if !ok {
		return def, nil
	}
	switch s {
	case "true", "on", "1", "yes":
		return true, nil
	case "false", "off", "0", "no":
		return false, nil
	}
	return false, fmt.Errorf("parameter %s: invalid boolean %q", key, s)
}

// String returns the named string parameter, or def when absent.
func (p *Params) String(key, def string) string {
	if s, ok := p.take(key); ok {
		return s
	}
	return def
}

// Floats returns the named parameter parsed as a float list, or def
// when absent; like Float, it rejects a NaN element. Elements separate
// on ':' or ',' — ':' is the canonical form, since commas already
// separate list fields in the scenario text grammar
// ("sinks=coldstart?q=50:75:99,waste").
func (p *Params) Floats(key string, def []float64) ([]float64, error) {
	s, ok := p.take(key)
	if !ok {
		return def, nil
	}
	parts := strings.FieldsFunc(s, func(r rune) bool { return r == ':' || r == ',' })
	if len(parts) == 0 {
		return nil, fmt.Errorf("parameter %s: empty list %q", key, s)
	}
	out := make([]float64, 0, len(parts))
	for _, part := range parts {
		f, err := parseFloat(key, strings.TrimSpace(part))
		if err != nil {
			return nil, err
		}
		out = append(out, f)
	}
	return out, nil
}

func (p *Params) take(key string) (string, bool) {
	if p.known == nil {
		p.known = map[string]bool{}
	}
	p.known[key] = true
	if !p.vals.Has(key) {
		return "", false
	}
	p.used[key] = true
	return p.vals.Get(key), true
}

// Known returns every key a typed accessor asked for, present in the
// spec or not, sorted — the parameters the builder understands. An
// "unknown parameters" error that also lists the known keys turns a
// typo ("binwdith") into a one-glance fix instead of a trip to the
// builder's source.
func (p *Params) Known() []string {
	keys := make([]string, 0, len(p.known))
	for k := range p.known {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

// Unused returns the keys no accessor consumed, sorted — the
// misspellings a registry turns into "unknown parameters" errors.
func (p *Params) Unused() []string {
	var left []string
	for k := range p.vals {
		if !p.used[k] {
			left = append(left, k)
		}
	}
	sort.Strings(left)
	return left
}
