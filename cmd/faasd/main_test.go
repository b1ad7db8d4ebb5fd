package main

import (
	"context"
	"errors"
	"io"
	"net"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"repro/internal/platform"
	"repro/internal/policy"
)

// TestServerDeadlines pins the two halves of the fix: the server
// carries header, body and idle timeouts, and shutdown returns within
// its bound while a request is stalled mid-body, dropping that request.
func TestServerDeadlines(t *testing.T) {
	entered := make(chan struct{})
	handlerDone := make(chan error, 1)
	srv := newServer("127.0.0.1:0", http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		close(entered)
		_, err := io.ReadAll(r.Body)
		handlerDone <- err
	}))
	if srv.ReadHeaderTimeout <= 0 || srv.ReadTimeout <= 0 || srv.IdleTimeout <= 0 {
		t.Fatalf("ReadHeaderTimeout = %v, ReadTimeout = %v, IdleTimeout = %v, want all set",
			srv.ReadHeaderTimeout, srv.ReadTimeout, srv.IdleTimeout)
	}

	ln, err := net.Listen("tcp", srv.Addr)
	if err != nil {
		t.Fatal(err)
	}
	served := make(chan error, 1)
	go func() { served <- srv.Serve(ln) }()

	// A client that announces 100 body bytes and sends 4.
	conn, err := net.Dial("tcp", ln.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	if _, err := io.WriteString(conn, "POST /invoke/x HTTP/1.1\r\nHost: x\r\nContent-Length: 100\r\n\r\nabcd"); err != nil {
		t.Fatal(err)
	}
	<-entered

	const bound = 100 * time.Millisecond
	start := time.Now()
	err = shutdown(srv, bound)
	if took := time.Since(start); took > bound+2*time.Second {
		t.Fatalf("shutdown took %v with a stalled request, bound %v", took, bound)
	}
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("shutdown error = %v, want deadline exceeded", err)
	}
	if err := <-served; !errors.Is(err, http.ErrServerClosed) {
		t.Fatalf("Serve returned %v, want ErrServerClosed", err)
	}
	select {
	case err := <-handlerDone:
		if err == nil {
			t.Fatal("stalled body read succeeded; the connection was not dropped")
		}
	case <-time.After(5 * time.Second):
		t.Fatal("handler still blocked after shutdown closed its connection")
	}
}

// TestBodyCap: an action spec larger than maxBodyBytes is refused and
// registers nothing; one within the cap still registers.
func TestBodyCap(t *testing.T) {
	p := platform.NewPlatform(platform.Config{NumInvokers: 1}, policy.MustFromSpec("fixed?ka=10m"))
	defer p.Stop()
	ts := httptest.NewServer(newServer("", platform.NewAPI(p)).Handler)
	defer ts.Close()

	put := func(name, body string) int {
		t.Helper()
		req, err := http.NewRequest(http.MethodPut, ts.URL+"/actions/"+name, strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		resp, err := ts.Client().Do(req)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		return resp.StatusCode
	}
	get := func(name string) int {
		t.Helper()
		resp, err := ts.Client().Get(ts.URL + "/actions/" + name)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		return resp.StatusCode
	}

	huge := `{"app":"` + strings.Repeat("a", maxBodyBytes) + `"}`
	if code := put("x", huge); code < 400 || code > 499 {
		t.Fatalf("PUT with a %d-byte body = %d, want 4xx", len(huge), code)
	}
	if code := get("x"); code != http.StatusNotFound {
		t.Fatalf("GET /actions/x after the refused PUT = %d, want 404", code)
	}
	if code := put("y", `{"exec_ms":5,"memory_mb":64}`); code != http.StatusCreated {
		t.Fatalf("PUT within the cap = %d, want 201", code)
	}
	if code := get("y"); code != http.StatusOK {
		t.Fatalf("GET /actions/y = %d, want 200", code)
	}
}
