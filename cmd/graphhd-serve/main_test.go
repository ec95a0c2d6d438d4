package main

import (
	"net/http"
	"testing"
)

// TestNewServerSetsTimeouts pins the slowloris guard: both listeners are
// built through newServer, which must bound header reads, whole-request
// reads and idle keep-alive connections.
func TestNewServerSetsTimeouts(t *testing.T) {
	h := http.NewServeMux()
	srv := newServer("127.0.0.1:0", h)
	if srv.Addr != "127.0.0.1:0" || srv.Handler != h {
		t.Fatalf("server not bound to its address and handler: %+v", srv)
	}
	if srv.ReadHeaderTimeout <= 0 || srv.ReadTimeout <= 0 || srv.IdleTimeout <= 0 {
		t.Fatalf("unbounded timeouts: header %v, read %v, idle %v",
			srv.ReadHeaderTimeout, srv.ReadTimeout, srv.IdleTimeout)
	}
	if srv.ReadHeaderTimeout > srv.ReadTimeout {
		t.Fatalf("header timeout %v exceeds whole-request read timeout %v",
			srv.ReadHeaderTimeout, srv.ReadTimeout)
	}
}
