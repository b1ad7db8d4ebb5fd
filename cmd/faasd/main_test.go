package main

import (
	"context"
	"errors"
	"io"
	"net"
	"net/http"
	"testing"
	"time"
)

// TestServerDeadlines pins the two halves of the fix: the server
// carries header and idle timeouts, and shutdown returns within its
// bound while a request is stalled mid-body, dropping that request.
func TestServerDeadlines(t *testing.T) {
	entered := make(chan struct{})
	handlerDone := make(chan error, 1)
	srv := newServer("127.0.0.1:0", http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		close(entered)
		_, err := io.ReadAll(r.Body)
		handlerDone <- err
	}))
	if srv.ReadHeaderTimeout <= 0 || srv.IdleTimeout <= 0 {
		t.Fatalf("ReadHeaderTimeout = %v, IdleTimeout = %v, want both set", srv.ReadHeaderTimeout, srv.IdleTimeout)
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
