// Command faasd runs the in-process FaaS platform (the OpenWhisk
// analogue of §4.3) behind an HTTP API, with a selectable keep-alive
// policy.
//
// Usage:
//
//	faasd -listen :8080 -policy 'hybrid?range=4h'
//	faasd -policy 'fixed?ka=20m' -record traffic.bundle
//	curl -X PUT  localhost:8080/actions/hello -d '{"exec_ms":50,"memory_mb":128}'
//	curl -X POST localhost:8080/invoke/hello
//	curl         localhost:8080/stats
//
// With -record, every invocation is captured and written out as an
// incident bundle on shutdown (Ctrl-C), replayable with
// coldsim -scenario 'source=bundle:traffic.bundle; policy=[...]'.
//
// Request bodies are capped at 1 MiB and must arrive within 30 s.
// Shutdown drains in-flight requests for at most shutdownTimeout and
// then drops what is still open, so the bundle is always written.
package main

import (
	"context"
	"flag"
	"fmt"
	"log"
	"net/http"
	"os"
	"os/signal"
	"time"

	"repro/internal/platform"
	"repro/internal/policy"
	"repro/internal/serve"
)

// Server limits. A client that trickles its request header or body,
// or parks an idle keep-alive connection, is cut off after these; a
// request body past maxBodyBytes fails its read (action specs are a
// few dozen bytes); a request still in flight shutdownTimeout after
// Ctrl-C is dropped.
const (
	readHeaderTimeout = 10 * time.Second
	readTimeout       = 30 * time.Second
	idleTimeout       = 2 * time.Minute
	shutdownTimeout   = 10 * time.Second
	maxBodyBytes      = 1 << 20
)

func newServer(addr string, h http.Handler) *http.Server {
	return &http.Server{
		Addr:              addr,
		Handler:           http.MaxBytesHandler(h, maxBodyBytes),
		ReadHeaderTimeout: readHeaderTimeout,
		ReadTimeout:       readTimeout,
		IdleTimeout:       idleTimeout,
	}
}

// shutdown drains srv gracefully for at most timeout, then closes the
// connections that are still open and returns the drain's error.
func shutdown(srv *http.Server, timeout time.Duration) error {
	ctx, cancel := context.WithTimeout(context.Background(), timeout)
	defer cancel()
	err := srv.Shutdown(ctx)
	if err != nil {
		srv.Close()
	}
	return err
}

func main() {
	log.SetFlags(0)
	log.SetPrefix("faasd: ")

	var (
		listen  = flag.String("listen", ":8080", "HTTP listen address")
		polSpec = flag.String("policy", "hybrid",
			fmt.Sprintf("keep-alive policy spec, e.g. 'hybrid?range=4h' or 'fixed?ka=20m' (registered: %v)", policy.SpecNames()))
		invokers  = flag.Int("invokers", 4, "invoker count")
		coldStart = flag.Duration("cold-start", 500*time.Millisecond, "simulated container cold start")
		record    = flag.String("record", "", "write served traffic as an incident bundle on shutdown")
	)
	flag.Parse()

	pol, err := policy.FromSpec(*polSpec)
	if err != nil {
		log.Fatal(err)
	}

	cfg := platform.Config{
		NumInvokers:    *invokers,
		ColdStartDelay: *coldStart,
	}
	var rec *serve.Recorder
	if *record != "" {
		rec = serve.NewRecorder(time.Now())
		cfg.Recorder = rec
	}

	p := platform.NewPlatform(cfg, pol)
	defer p.Stop()

	api := platform.NewAPI(p)
	fmt.Printf("faasd: %d invokers, policy %s, listening on %s\n",
		*invokers, pol.Name(), *listen)

	srv := newServer(*listen, api)
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt)
	defer stop()
	serveErr := make(chan error, 1)
	go func() { serveErr <- srv.ListenAndServe() }()
	select {
	case err := <-serveErr:
		log.Fatal(err)
	case <-ctx.Done():
	}
	if err := shutdown(srv, shutdownTimeout); err != nil {
		log.Printf("shutdown: %v; dropped the requests still in flight", err)
	}

	if rec != nil {
		f, err := os.Create(*record)
		if err != nil {
			log.Fatal(err)
		}
		if err := rec.WriteBundle(f, "faasd", 0); err != nil {
			log.Fatal(err)
		}
		if err := f.Close(); err != nil {
			log.Fatal(err)
		}
		log.Printf("recorded %d invocations to %s", rec.Invocations(), *record)
	}
}
