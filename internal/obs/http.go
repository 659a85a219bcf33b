package obs

import (
	"net/http"
	"net/http/pprof"
)

// Handler serves the registry as a JSON snapshot, expvar-style: one
// GET, one frozen document. lbnode and lbmanager mount it at /metrics.
func Handler(reg *Registry) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		out, err := reg.Snapshot().WriteJSON()
		if err != nil {
			http.Error(w, err.Error(), http.StatusInternalServerError)
			return
		}
		w.Header().Set("Content-Type", "application/json; charset=utf-8")
		w.Write(out)
		w.Write([]byte("\n"))
	})
}

// NewMux builds the observability mux served by lbnode/lbmanager:
// /metrics (JSON snapshot) and — only when enablePprof is set — the
// net/http/pprof handlers under /debug/pprof/.
// pprof is opt-in because it exposes goroutine stacks and heap contents;
// an always-on profiling surface is not something a service should grow
// by accident.
func NewMux(reg *Registry, enablePprof bool) *http.ServeMux {
	mux := http.NewServeMux()
	mux.Handle("/metrics", Handler(reg))
	if enablePprof {
		// Registered explicitly: importing net/http/pprof for its
		// DefaultServeMux side effect would force profiling onto every
		// binary that links this package.
		mux.HandleFunc("/debug/pprof/", pprof.Index)
		mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
		mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
		mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
		mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	}
	return mux
}
