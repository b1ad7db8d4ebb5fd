package scenario

import (
	"bytes"
	"encoding/json"
	"fmt"
	"strings"
)

// Grid is a declarative sweep: a base scenario plus list-valued
// axes. Scenarios() expands the cartesian product of the axes over
// the base (earlier axes vary slowest), then appends the explicit
// extra cells, so a whole evaluation grid — policies × keep-alive
// ranges × platform shapes — is one value.
//
// The text grammar is the scenario grammar with bracketed lists:
//
//	source=gen:apps=400; policy=[fixed?ka=10m,fixed?ka=1h,hybrid];
//	cluster.nodes=8; cluster.mem=[2048,4096,8192]
//
// expands to 3 × 3 = 9 cells. The JSON form is
//
//	{"base": {...scenario...},
//	 "axes": [{"key": "policy", "values": ["fixed?ka=10m", "hybrid"]},
//	          {"key": "cluster.mem", "values": ["2048", "4096"]}],
//	 "cells": [{...scenario...}]}
//
// where base, axes and cells are each optional, and a JSON object
// with none of those keys parses as a single scenario (a 1-cell
// grid). Axis values assign through the same field path as the text
// grammar, so everything validates identically.
type Grid struct {
	// Base holds the assignments shared by every expanded cell.
	Base Scenario `json:"base,omitempty"`
	// Axes are the list-valued fields, expanded as a cartesian
	// product in order (first axis varies slowest).
	Axes []Axis `json:"axes,omitempty"`
	// Cells are explicit extra scenarios appended after the expansion
	// (cells whose shape an axis cannot express, e.g. batch next to
	// cluster cells).
	Cells []Scenario `json:"cells,omitempty"`
}

// Axis is one list-valued field of a grid.
type Axis struct {
	// Key is a scenario field key ("policy", "cluster.mem", "source").
	Key string `json:"key"`
	// Values are the field values the axis sweeps, in order.
	Values []string `json:"values"`
}

// ParseGrid parses a grid from the text grammar (bracketed lists) or
// from JSON when s starts with '{'. A spec with no lists parses as a
// 1-cell grid.
func ParseGrid(s string) (Grid, error) {
	if strings.HasPrefix(strings.TrimSpace(s), "{") {
		return parseGridJSON([]byte(s))
	}
	var g Grid
	seen := map[string]bool{}
	for _, part := range strings.Split(s, ";") {
		part = strings.TrimSpace(part)
		if part == "" {
			continue
		}
		key, val, ok := strings.Cut(part, "=")
		if !ok {
			return Grid{}, fmt.Errorf("scenario: want key=value, got %q", part)
		}
		key, val = strings.TrimSpace(key), strings.TrimSpace(val)
		if seen[key] {
			return Grid{}, fmt.Errorf("scenario: duplicate field %q", key)
		}
		seen[key] = true
		if strings.HasPrefix(val, "[") && strings.HasSuffix(val, "]") {
			var values []string
			for _, v := range strings.Split(val[1:len(val)-1], ",") {
				if v = strings.TrimSpace(v); v != "" {
					values = append(values, v)
				}
			}
			if len(values) == 0 {
				return Grid{}, fmt.Errorf("scenario: axis %q: empty list", key)
			}
			// Validate every value through the assignment path now, so
			// a bad axis value fails at parse, not mid-sweep.
			for _, v := range values {
				probe := g.Base.clone()
				if err := probe.set(key, v); err != nil {
					return Grid{}, err
				}
				if err := probe.normalize(); err != nil {
					return Grid{}, err
				}
			}
			g.Axes = append(g.Axes, Axis{Key: key, Values: values})
			continue
		}
		if err := g.Base.set(key, val); err != nil {
			return Grid{}, err
		}
	}
	if err := g.Base.normalize(); err != nil {
		return Grid{}, err
	}
	return g, nil
}

// parseGridJSON decodes the JSON form. An object carrying none of the
// grid keys (base, axes, cells) is a single scenario.
func parseGridJSON(data []byte) (Grid, error) {
	var probe map[string]json.RawMessage
	if err := json.Unmarshal(data, &probe); err != nil {
		return Grid{}, fmt.Errorf("scenario: %w", err)
	}
	_, hasBase := probe["base"]
	_, hasAxes := probe["axes"]
	_, hasCells := probe["cells"]
	if !hasBase && !hasAxes && !hasCells {
		sc, err := parseScenarioJSON(data)
		if err != nil {
			return Grid{}, err
		}
		return Grid{Base: sc}, nil
	}
	var g Grid
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&g); err != nil {
		return Grid{}, fmt.Errorf("scenario: %w", err)
	}
	if err := g.Base.normalize(); err != nil {
		return Grid{}, err
	}
	for i := range g.Cells {
		if err := g.Cells[i].normalize(); err != nil {
			return Grid{}, err
		}
	}
	return g, nil
}

// Scenarios expands the grid into its cells: the cartesian product of
// the axes applied to the base (first axis varies slowest), followed
// by the explicit extra cells.
func (g Grid) Scenarios() ([]Scenario, error) {
	cells := []Scenario{g.Base.clone()}
	for _, ax := range g.Axes {
		if len(ax.Values) == 0 {
			return nil, fmt.Errorf("scenario: axis %q: empty list", ax.Key)
		}
		next := make([]Scenario, 0, len(cells)*len(ax.Values))
		for _, cell := range cells {
			for _, v := range ax.Values {
				c := cell.clone()
				if err := c.set(ax.Key, v); err != nil {
					return nil, err
				}
				if err := c.normalize(); err != nil {
					return nil, err
				}
				next = append(next, c)
			}
		}
		cells = next
	}
	if len(g.Axes) == 0 && len(g.Cells) > 0 && g.Base.String() == "" {
		// A pure cell list: don't emit the empty base as a cell.
		cells = cells[:0]
	}
	for _, c := range g.Cells {
		cells = append(cells, c.clone())
	}
	return cells, nil
}
