package obs

import (
	"fmt"
	"net"
	"net/http"
	"net/http/pprof"
	"time"
)

// Server is a live exposition endpoint: Prometheus-text /metrics for the
// registry and the full net/http/pprof suite under /debug/pprof/ — so a
// long sampling run can be profiled and watched without stopping it.
type Server struct {
	// Addr is the bound listen address (resolves ":0" requests).
	Addr string
	srv  *http.Server
	ln   net.Listener
}

// Serve starts an HTTP exposition server on addr for the registry. addr may
// end in ":0" to pick a free port; the resolved address is in Server.Addr.
// The server runs until Close.
func Serve(addr string, r *Registry) (*Server, error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, fmt.Errorf("obs: metrics listener: %w", err)
	}
	// Every exposition endpoint carries the process-health gauges.
	RegisterRuntimeMetrics(r)
	mux := http.NewServeMux()
	mux.Handle("/metrics", r.Handler())
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	s := &Server{
		Addr: ln.Addr().String(),
		srv:  &http.Server{Handler: mux, ReadHeaderTimeout: 5 * time.Second},
		ln:   ln,
	}
	go func() { _ = s.srv.Serve(ln) }()
	return s, nil
}

// Close stops the server and its listener.
func (s *Server) Close() error {
	if s == nil {
		return nil
	}
	return s.srv.Close()
}
