package main

import (
	"bytes"
	"fmt"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"time"

	"repro/internal/platform"
	"repro/internal/policy"
)

// httpConns is the closed-loop client count of serve-http: two keep-alive
// connections, each sending its next request when the previous one
// returns. Closed loop is deliberate: this sandbox's timers are ~1 ms
// coarse, so a sub-millisecond open-loop schedule would measure the
// scheduler, not the platform (see README, "Unmeasured").
const httpConns = 2

// httpRig is a live in-process platform behind a real loopback listener,
// with its actions registered and a Zipf(1.2) request schedule per
// connection.
type httpRig struct {
	plat     *platform.Platform
	api      *platform.API
	srv      *httptest.Server
	actions  []string
	schedule [httpConns][]int32 // action index per request, cycled
	requests int                // per connection per rep
}

// buildHTTP starts the platform and registers the actions over HTTP, the
// way a client would. Virtual time runs 3600x (a second is an hour) and
// container delays are 1 ns, so keep-alive and pre-warm timers fire as in
// production but no request sleeps.
func buildHTTP(sz sizes, seed uint64) (*httpRig, error) {
	pol, err := policy.FromSpec("hybrid")
	if err != nil {
		return nil, err
	}
	rig := &httpRig{requests: sz.Requests}
	rig.plat = platform.NewPlatform(platform.Config{
		Clock:            platform.NewScaledClock(3600),
		ColdStartDelay:   time.Nanosecond,
		RuntimeInitDelay: time.Nanosecond,
	}, pol)
	rig.api = platform.NewAPI(rig.plat)
	rig.srv = httptest.NewServer(rig.api)

	rig.actions = make([]string, sz.Actions)
	for i := range rig.actions {
		rig.actions[i] = fmt.Sprintf("act-%05d", i)
		req, err := http.NewRequest(http.MethodPut, rig.srv.URL+"/actions/"+rig.actions[i],
			strings.NewReader(`{"exec_ms":0,"memory_mb":128}`))
		if err != nil {
			rig.close()
			return nil, err
		}
		resp, err := rig.srv.Client().Do(req)
		if err != nil {
			rig.close()
			return nil, fmt.Errorf("registering %s: %w", rig.actions[i], err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusCreated {
			rig.close()
			return nil, fmt.Errorf("registering %s: status %d", rig.actions[i], resp.StatusCode)
		}
	}
	for c := range rig.schedule {
		rng := rand.New(rand.NewSource(int64(subSeed(seed, 5+c))))
		zipf := rand.NewZipf(rng, 1.2, 1, uint64(sz.Actions-1))
		rig.schedule[c] = make([]int32, 1<<16)
		for i := range rig.schedule[c] {
			rig.schedule[c][i] = int32(zipf.Uint64())
		}
	}
	return rig, nil
}

func (r *httpRig) close() {
	r.srv.Close()
	r.plat.Stop()
}

// httpRep is one fixed-work window: every connection sends r.requests
// blocking POST /invoke requests back to back and times each one. A
// request fails unless it returns 200 and names the invoked action.
//
//wildlint:allow wallclock
func httpRep(r *httpRig, rep int) (repResult, error) {
	lat := make([][]float64, httpConns)
	failed := make([]int64, httpConns)
	var wg sync.WaitGroup
	tm, _ := timed(false, func() error {
		for c := 0; c < httpConns; c++ {
			wg.Add(1)
			go func(c int) {
				defer wg.Done()
				tr := &http.Transport{MaxConnsPerHost: 1, MaxIdleConnsPerHost: 1}
				defer tr.CloseIdleConnections()
				client := &http.Client{Transport: tr}
				lat[c] = make([]float64, 0, r.requests)
				var body bytes.Buffer
				sched := r.schedule[c]
				at := rep * r.requests
				for k := 0; k < r.requests; k++ {
					name := r.actions[sched[(at+k)%len(sched)]]
					t0 := time.Now()
					resp, err := client.Post(r.srv.URL+"/invoke/"+name, "application/json", nil)
					if err != nil {
						failed[c]++
						continue
					}
					body.Reset()
					_, err = body.ReadFrom(resp.Body)
					resp.Body.Close()
					lat[c] = append(lat[c], float64(time.Since(t0).Nanoseconds())/1e3)
					if err != nil || resp.StatusCode != http.StatusOK || !bytes.Contains(body.Bytes(), []byte(name)) {
						failed[c]++
					}
				}
			}(c)
		}
		wg.Wait()
		return nil
	})
	res := repResult{timing: tm, Ops: int64(httpConns * r.requests)}
	var all []float64
	for c := range lat {
		all = append(all, lat[c]...)
		res.Failed += failed[c]
	}
	ps := percentiles(all, 50, 99, 99.9)
	res.Extra = map[string]float64{"p50_us": ps[0], "p99_us": ps[1], "p999_us": ps[2], "samples": float64(len(all))}
	if res.Failed > 0 {
		res.Problem = fmt.Sprintf("%d of %d requests failed", res.Failed, res.Ops)
	}
	return res, nil
}
