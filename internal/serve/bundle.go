package serve

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"time"

	"repro/internal/trace"
)

// An incident bundle is a captured invocation stream in a
// self-describing file: one JSON header line, then an
// AzurePublicDataset-style invocations table (the trace CSV row
// codec, unchanged):
//
//	{"version":1,"name":"cache-stampede","minutes":480,...}
//	HashOwner,HashApp,HashFunction,Trigger,1,2,...,480
//	app03,app03,fn01,http,0,4,12,...
//
// The header is versioned so the format can grow; the body reuses the
// dataset codec so every existing trace tool — the streaming reader,
// the simulator, the scenario engine ("bundle:" source) — consumes a
// bundle with no new parsing path.

// BundleVersion is the current bundle format version.
const BundleVersion = 1

// BundleMeta is the bundle's JSON header.
type BundleMeta struct {
	Version     int    `json:"version"`
	Name        string `json:"name,omitempty"`
	Epoch       string `json:"epoch,omitempty"` // RFC3339 recorder anchor
	Minutes     int    `json:"minutes"`
	Apps        int    `json:"apps"`
	Functions   int    `json:"functions"`
	Invocations int    `json:"invocations"`
	// Early counts events dropped for preceding the recorder epoch.
	Early int64 `json:"early_dropped,omitempty"`
}

// metaFor summarizes a trace into header counts.
func metaFor(name string, tr *trace.Trace) BundleMeta {
	m := BundleMeta{Version: BundleVersion, Name: name, Minutes: int(tr.Duration.Minutes())}
	for _, app := range tr.Apps {
		m.Apps++
		for _, fn := range app.Functions {
			m.Functions++
			m.Invocations += len(fn.Invocations)
		}
	}
	return m
}

// WriteBundle writes the recorded stream as an incident bundle.
// horizon bounds the bundle's minute columns (0 = last recorded
// minute); see Recorder.Trace for the truncation rule.
func (r *Recorder) WriteBundle(w io.Writer, name string, horizon time.Duration) error {
	tr := r.Trace(horizon)
	meta := metaFor(name, tr)
	meta.Epoch = r.epoch.UTC().Format(time.RFC3339)
	r.mu.Lock()
	meta.Early = r.early
	r.mu.Unlock()
	hdr, err := json.Marshal(meta)
	if err != nil {
		return fmt.Errorf("serve: encoding bundle header: %w", err)
	}
	if _, err := w.Write(append(hdr, '\n')); err != nil {
		return fmt.Errorf("serve: writing bundle header: %w", err)
	}
	return trace.WriteInvocationsCSV(w, tr)
}

// readBundleMeta consumes and validates the header line.
func readBundleMeta(br *bufio.Reader) (BundleMeta, error) {
	line, err := br.ReadString('\n')
	if err != nil && (err != io.EOF || line == "") {
		return BundleMeta{}, fmt.Errorf("serve: reading bundle header: %w", err)
	}
	var meta BundleMeta
	if err := json.Unmarshal([]byte(line), &meta); err != nil {
		return BundleMeta{}, fmt.Errorf("serve: parsing bundle header: %w", err)
	}
	if meta.Version != BundleVersion {
		return BundleMeta{}, fmt.Errorf("serve: bundle version %d unsupported (this build reads version %d)",
			meta.Version, BundleVersion)
	}
	return meta, nil
}

// StreamBundle opens an incident bundle as a constant-memory
// streaming trace source (one app in memory at a time), for the
// scenario engine's "bundle:" source scheme.
func StreamBundle(r io.Reader) (BundleMeta, trace.Source, error) {
	br := bufio.NewReader(r)
	meta, err := readBundleMeta(br)
	if err != nil {
		return BundleMeta{}, nil, err
	}
	src, err := trace.StreamInvocationsCSV(br)
	if err != nil {
		return BundleMeta{}, nil, err
	}
	return meta, src, nil
}
