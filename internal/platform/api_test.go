package platform

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"sync"
	"testing"
	"time"

	"repro/internal/policy"
	"repro/internal/serve"
	"repro/internal/trace"
)

// liveCfg runs the platform on a live clock, the surface the HTTP API
// serves, 1000x real time: a 510 ms cold start takes about 0.5 ms.
func liveCfg() Config { return Config{NumInvokers: 2, Clock: NewScaledClock(1000)} }

func newTestAPI(t *testing.T) (*API, *Platform) {
	t.Helper()
	p := NewPlatform(liveCfg(), policy.FixedKeepAlive{KeepAlive: 10 * time.Minute})
	t.Cleanup(p.Stop)
	return NewAPI(p), p
}

func doJSON(t *testing.T, h http.Handler, method, path string, body any) *httptest.ResponseRecorder {
	t.Helper()
	var buf bytes.Buffer
	if body != nil {
		if err := json.NewEncoder(&buf).Encode(body); err != nil {
			t.Fatal(err)
		}
	}
	req := httptest.NewRequest(method, path, &buf)
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, req)
	return rec
}

func TestAPICreateAndGetAction(t *testing.T) {
	api, _ := newTestAPI(t)
	rec := doJSON(t, api, http.MethodPut, "/actions/hello",
		map[string]any{"app": "demo", "exec_ms": 5, "memory_mb": 128})
	if rec.Code != http.StatusCreated {
		t.Fatalf("create status = %d", rec.Code)
	}
	rec = doJSON(t, api, http.MethodGet, "/actions/hello", nil)
	if rec.Code != http.StatusOK {
		t.Fatalf("get status = %d", rec.Code)
	}
	var spec struct {
		App string `json:"app"`
	}
	if err := json.Unmarshal(rec.Body.Bytes(), &spec); err != nil {
		t.Fatal(err)
	}
	if spec.App != "demo" {
		t.Fatalf("app = %q", spec.App)
	}
}

func TestAPIInvoke(t *testing.T) {
	api, _ := newTestAPI(t)
	doJSON(t, api, http.MethodPut, "/actions/hello",
		map[string]any{"exec_ms": 1, "memory_mb": 64})

	rec := doJSON(t, api, http.MethodPost, "/invoke/hello", nil)
	if rec.Code != http.StatusOK {
		t.Fatalf("invoke status = %d: %s", rec.Code, rec.Body.String())
	}
	var resp invokeResponse
	if err := json.Unmarshal(rec.Body.Bytes(), &resp); err != nil {
		t.Fatal(err)
	}
	if !resp.Cold {
		t.Fatal("first invocation should be cold")
	}
	rec = doJSON(t, api, http.MethodPost, "/invoke/hello", nil)
	if err := json.Unmarshal(rec.Body.Bytes(), &resp); err != nil {
		t.Fatal(err)
	}
	if resp.Cold {
		t.Fatal("second invocation should be warm")
	}
}

func TestAPIInvokeUnknownAction(t *testing.T) {
	api, _ := newTestAPI(t)
	rec := doJSON(t, api, http.MethodPost, "/invoke/nope", nil)
	if rec.Code != http.StatusNotFound {
		t.Fatalf("status = %d", rec.Code)
	}
}

func TestAPIBadRequests(t *testing.T) {
	api, _ := newTestAPI(t)
	// Missing action name.
	if rec := doJSON(t, api, http.MethodPut, "/actions/", nil); rec.Code != http.StatusBadRequest {
		t.Fatalf("status = %d", rec.Code)
	}
	// Bad JSON body.
	req := httptest.NewRequest(http.MethodPut, "/actions/x", bytes.NewBufferString("{"))
	rec := httptest.NewRecorder()
	api.ServeHTTP(rec, req)
	if rec.Code != http.StatusBadRequest {
		t.Fatalf("status = %d", rec.Code)
	}
	// Wrong methods.
	if rec := doJSON(t, api, http.MethodDelete, "/actions/x", nil); rec.Code != http.StatusMethodNotAllowed {
		t.Fatalf("status = %d", rec.Code)
	}
	if rec := doJSON(t, api, http.MethodGet, "/invoke/x", nil); rec.Code != http.StatusMethodNotAllowed {
		t.Fatalf("status = %d", rec.Code)
	}
	if rec := doJSON(t, api, http.MethodPost, "/stats", nil); rec.Code != http.StatusMethodNotAllowed {
		t.Fatalf("status = %d", rec.Code)
	}
	// Unknown action GET.
	if rec := doJSON(t, api, http.MethodGet, "/actions/ghost", nil); rec.Code != http.StatusNotFound {
		t.Fatalf("status = %d", rec.Code)
	}
}

func TestAPIStats(t *testing.T) {
	api, _ := newTestAPI(t)
	doJSON(t, api, http.MethodPut, "/actions/a", map[string]any{"exec_ms": 0})
	doJSON(t, api, http.MethodPost, "/invoke/a", nil)
	doJSON(t, api, http.MethodPost, "/invoke/a", nil)

	rec := doJSON(t, api, http.MethodGet, "/stats", nil)
	if rec.Code != http.StatusOK {
		t.Fatalf("status = %d", rec.Code)
	}
	var s statsResponse
	if err := json.Unmarshal(rec.Body.Bytes(), &s); err != nil {
		t.Fatal(err)
	}
	if s.ColdStarts != 1 || s.WarmStarts != 1 {
		t.Fatalf("stats = %+v", s)
	}
}

func TestAPIDefaultMemory(t *testing.T) {
	api, _ := newTestAPI(t)
	doJSON(t, api, http.MethodPut, "/actions/m", map[string]any{"exec_ms": 0})
	rec := doJSON(t, api, http.MethodGet, "/actions/m", nil)
	var spec actionSpec
	if err := json.Unmarshal(rec.Body.Bytes(), &spec); err != nil {
		t.Fatal(err)
	}
	if spec.MemoryMB != 128 {
		t.Fatalf("default memory = %v", spec.MemoryMB)
	}
}

func TestAPIInvokeAfterStop(t *testing.T) {
	api, p := newTestAPI(t)
	doJSON(t, api, http.MethodPut, "/actions/hello", map[string]any{"exec_ms": 0})
	p.Stop()
	rec := doJSON(t, api, http.MethodPost, "/invoke/hello", nil)
	if rec.Code != http.StatusServiceUnavailable {
		t.Fatalf("invoke after Stop: status = %d, want 503", rec.Code)
	}
}

// TestAPIConcurrentInvokeStats hammers the API from many goroutines —
// invokes on several actions, stats reads, action lookups and
// re-registrations — and checks every response and the final decision
// count. Run under -race this covers the serving path end to end: the
// HTTP layer, the dispatch controller, and the sharded decision
// service underneath.
func TestAPIConcurrentInvokeStats(t *testing.T) {
	api, p := newTestAPI(t)
	for _, name := range []string{"alpha", "beta", "gamma"} {
		if rec := doJSON(t, api, http.MethodPut, "/actions/"+name,
			map[string]any{"exec_ms": 0, "memory_mb": 64}); rec.Code != http.StatusCreated {
			t.Fatalf("register %s: status = %d", name, rec.Code)
		}
	}

	const workers, per = 6, 40
	var wg sync.WaitGroup
	errs := make(chan string, workers*per)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			name := []string{"alpha", "beta", "gamma"}[w%3]
			for i := 0; i < per; i++ {
				switch {
				case w == 0 && i%8 == 0: // stats reader
					if rec := doJSON(t, api, http.MethodGet, "/stats", nil); rec.Code != http.StatusOK {
						errs <- fmt.Sprintf("stats: %d", rec.Code)
					}
				case w == 1 && i%8 == 0: // concurrent re-registration
					if rec := doJSON(t, api, http.MethodPut, "/actions/"+name,
						map[string]any{"exec_ms": 0, "memory_mb": 64}); rec.Code != http.StatusCreated {
						errs <- fmt.Sprintf("re-register: %d", rec.Code)
					}
				default:
					if rec := doJSON(t, api, http.MethodPost, "/invoke/"+name, nil); rec.Code != http.StatusOK {
						errs <- fmt.Sprintf("invoke %s: %d — %s", name, rec.Code, rec.Body.String())
					}
				}
			}
		}(w)
	}
	wg.Wait()
	close(errs)
	for e := range errs {
		t.Error(e)
	}

	// Every invoke flowed through the decision service exactly once.
	invokes := 0
	for _, ao := range p.AppOutcomes() {
		invokes += ao.Invocations
	}
	if got := p.Controller().dec.Decisions(); got != int64(invokes) {
		t.Fatalf("decision service served %d decisions, platform saw %d invokes", got, invokes)
	}
	if got := p.controller.latHist.Count(); got != int64(invokes) {
		t.Fatalf("latency histogram holds %d samples, want %d", got, invokes)
	}
}

// TestAPIInvokesRecordedAsBundle wires a Recorder into the platform
// and checks HTTP invokes come out the other end as a replayable
// incident bundle: the live serving loop's capture path.
func TestAPIInvokesRecordedAsBundle(t *testing.T) {
	cfg := liveCfg()
	rec := serve.NewRecorder(cfg.Clock.Now())
	cfg.Recorder = rec
	p := NewPlatform(cfg, policy.FixedKeepAlive{KeepAlive: 10 * time.Minute})
	t.Cleanup(p.Stop)
	api := NewAPI(p)

	doJSON(t, api, http.MethodPut, "/actions/hello", map[string]any{"app": "demo", "exec_ms": 1})
	const n = 5
	for i := 0; i < n; i++ {
		if rec := doJSON(t, api, http.MethodPost, "/invoke/hello", nil); rec.Code != http.StatusOK {
			t.Fatalf("invoke %d: status = %d", i, rec.Code)
		}
	}
	if got := rec.Invocations(); got != n {
		t.Fatalf("recorder captured %d invocations, want %d", got, n)
	}
	var buf bytes.Buffer
	if err := rec.WriteBundle(&buf, "api-capture", 0); err != nil {
		t.Fatal(err)
	}
	meta, src, err := serve.StreamBundle(&buf)
	if err != nil {
		t.Fatal(err)
	}
	tr, err := trace.Collect(src)
	if err != nil {
		t.Fatal(err)
	}
	if meta.Invocations != n || meta.Apps != 1 {
		t.Fatalf("bundle meta = %+v, want %d invocations of 1 app", meta, n)
	}
	if tr.Apps[0].ID != "demo" || tr.Apps[0].Functions[0].ID != "hello" {
		t.Fatalf("bundle holds %s/%s, want demo/hello", tr.Apps[0].ID, tr.Apps[0].Functions[0].ID)
	}
}
