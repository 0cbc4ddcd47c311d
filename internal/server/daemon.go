package server

import (
	"fmt"
	"log/slog"
	"net/http"
	"net/http/pprof"
	"os"
)

// NewLogger builds a daemon's logger on stderr in the -log-format it was
// given: text or json.
func NewLogger(format string) (*slog.Logger, error) {
	switch format {
	case "text":
		return slog.New(slog.NewTextHandler(os.Stderr, nil)), nil
	case "json":
		return slog.New(slog.NewJSONHandler(os.Stderr, nil)), nil
	}
	return nil, fmt.Errorf("unknown -log-format %q (text, json)", format)
}

// ServePprof serves net/http/pprof on addr, a listener of its own (normally
// loopback-only, so profiles never share the query port), in the
// background. An empty addr serves nothing.
func ServePprof(addr string, logger *slog.Logger) {
	if addr == "" {
		return
	}
	mux := http.NewServeMux()
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	go func() {
		logger.Info("pprof listening", "addr", addr)
		if err := http.ListenAndServe(addr, mux); err != nil {
			logger.Error("pprof listener failed", "err", err)
		}
	}()
}
