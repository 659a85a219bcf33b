// Command lbmanager runs a standalone centralized load-index manager,
// the §4 IDEAL emulation, for use with lbclient -policy ideal. It
// prints its address on stdout and serves until interrupted.
//
// Usage:
//
//	lbmanager -n 4 [-http :0] [-pprof] [-grace 3s]
//
// With -http the manager serves its own registry at /metrics (the
// manager_acquires and manager_releases counters and the
// manager_outstanding gauge) and, with -pprof, the net/http/pprof
// handlers under /debug/pprof/.
package main

import (
	"flag"
	"fmt"
	"net"
	"net/http"
	"os"
	"os/signal"
	"syscall"
	"time"

	"finelb/internal/cluster"
	"finelb/internal/obs"
)

func main() {
	n := flag.Int("n", 4, "number of servers the manager tracks (must match the node count and ordering)")
	httpAddr := flag.String("http", "", "serve /metrics (JSON obs snapshot) on this address; empty disables")
	pprofOn := flag.Bool("pprof", false, "with -http, also expose /debug/pprof/ handlers")
	grace := flag.Duration("grace", 3*time.Second, "drain window after the first signal: serve until outstanding acquisitions release (second signal exits immediately)")
	flag.Parse()

	m, err := cluster.StartIdealManager(nil, *n)
	if err != nil {
		fmt.Fprintln(os.Stderr, "lbmanager:", err)
		os.Exit(1)
	}
	fmt.Println(m.Addr())
	fmt.Fprintf(os.Stderr, "lbmanager: tracking %d servers; Ctrl-C to stop\n", *n)

	if *httpAddr != "" {
		ln, err := net.Listen("tcp", *httpAddr)
		if err != nil {
			fmt.Fprintln(os.Stderr, "lbmanager:", err)
			os.Exit(1)
		}
		defer ln.Close()
		go http.Serve(ln, obs.NewMux(m.Registry(), *pprofOn))
		fmt.Fprintf(os.Stderr, "lbmanager: metrics at http://%s/metrics\n", ln.Addr())
	} else if *pprofOn {
		fmt.Fprintln(os.Stderr, "lbmanager: -pprof requires -http")
		os.Exit(2)
	}

	sig := make(chan os.Signal, 2)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	<-sig
	outstanding := m.Registry().Gauge(obs.MetricManagerOutstanding)
	// First signal: graceful drain. Keep answering protocol messages so
	// clients can release what they hold; exit once the outstanding
	// count reaches zero, the grace window expires, or a second signal
	// arrives.
	fmt.Fprintf(os.Stderr, "lbmanager: draining for up to %v; signal again to exit now\n", *grace)
	deadline := time.After(*grace)
	tick := time.NewTicker(50 * time.Millisecond)
	defer tick.Stop()
drain:
	for outstanding.Value() > 0 {
		select {
		case <-sig:
			break drain
		case <-deadline:
			break drain
		case <-tick.C:
		}
	}
	if left := outstanding.Value(); left > 0 {
		fmt.Fprintf(os.Stderr, "lbmanager: exiting with %d acquisition(s) unreleased\n", left)
	}
	fmt.Fprintf(os.Stderr, "lbmanager: final counts %v\n", m.Counts())
	m.Close()
}
