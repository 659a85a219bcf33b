// Package finelb is a Go reproduction of "Cluster Load Balancing for
// Fine-Grain Network Services" (Shen, Yang, Chu; IPPS/IPDPS 2002): the
// random-polling (power-of-d-choices) load-balancing policy family for
// services inside a cluster, together with the broadcast, random,
// round-robin, and IDEAL baselines, a discrete-event simulator, a
// real-socket Neptune-lite prototype, and drivers that regenerate every
// table and figure of the paper's evaluation.
//
// This file is the public facade: it re-exports the pieces a downstream
// user composes, while implementations live under internal/.
//
// # Quick start
//
// Simulate the paper's headline configuration — 16 servers at 90% load,
// fine-grain services, poll size 2:
//
//	w := finelb.FineGrain().ScaledTo(16, 0.9)
//	res, err := finelb.Simulate(finelb.SimConfig{
//		Servers: 16, Workload: w, Policy: finelb.NewPoll(2),
//	})
//	fmt.Println(res.MeanResponse())
//
// Or run the same cell on the real-socket prototype:
//
//	res, err := finelb.ProtoSubstrate{}.Run(finelb.RunSpec{
//		Servers: 16, Workload: w, Policy: finelb.NewPoll(2),
//		Accesses: 20000, Seed: 1,
//	})
//	fmt.Println(res.MeanResponse, res.Lost)
//
// See examples/ for complete programs and cmd/repro for the experiment
// suite.
package finelb

import (
	"time"

	"finelb/internal/cluster"
	"finelb/internal/core"
	"finelb/internal/faults"
	"finelb/internal/simcluster"
	"finelb/internal/substrate"
	"finelb/internal/transport"
	"finelb/internal/workload"
)

// Policy is a load-balancing policy specification (random, round-robin,
// random polling with optional slow-poll discard, broadcast, or IDEAL).
type Policy = core.Policy

// Policy constructors.
var (
	// NewRandom returns the uniform random policy.
	NewRandom = core.NewRandom
	// NewRoundRobin returns the per-client round-robin policy.
	NewRoundRobin = core.NewRoundRobin
	// NewPoll returns the paper's random polling policy with poll size d.
	NewPoll = core.NewPoll
	// NewPollDiscard returns random polling with the slow-poll discard
	// optimization of §3.2.
	NewPollDiscard = core.NewPollDiscard
	// NewBroadcast returns the broadcast (server push) policy.
	NewBroadcast = core.NewBroadcast
	// NewIdeal returns the omniscient IDEAL reference policy.
	NewIdeal = core.NewIdeal
)

// Workload couples an inter-arrival distribution with a service-time
// distribution; scale it to a cluster size and load with ScaledTo.
type Workload = workload.Workload

// The paper's three evaluation workloads.
var (
	// PoissonExp returns the synthetic Poisson/Exp workload.
	PoissonExp = workload.PoissonExp
	// MediumGrain returns the Medium-Grain Teoma-like trace workload
	// (mean service 28.9 ms).
	MediumGrain = workload.MediumGrain
	// FineGrain returns the Fine-Grain Teoma-like trace workload
	// (mean service 2.22 ms).
	FineGrain = workload.FineGrain
	// PaperWorkloads returns all three in the paper's order.
	PaperWorkloads = workload.Paper
)

// Trace is a materialized access sequence with Table 1 statistics.
type Trace = workload.Trace

// SimConfig configures a discrete-event simulation run (Figures 2-4).
type SimConfig = simcluster.Config

// SimResult is a simulation run's measurements.
type SimResult = simcluster.Result

// Simulate executes one simulated cluster experiment.
func Simulate(cfg SimConfig) (*SimResult, error) { return simcluster.Run(cfg) }

// Cluster pieces for programs that want to compose a service cluster
// directly rather than run a canned experiment (see examples/).
type (
	// Directory is the soft-state service availability subsystem.
	Directory = cluster.Directory
	// Node is a prototype server node.
	Node = cluster.Node
	// NodeConfig configures a Node.
	NodeConfig = cluster.NodeConfig
	// Client is a prototype client node with the polling agent.
	Client = cluster.Client
	// ClientConfig configures a Client.
	ClientConfig = cluster.ClientConfig
	// Endpoint is one published service instance.
	Endpoint = cluster.Endpoint
	// IdealManager is the centralized load-index manager emulating IDEAL.
	IdealManager = cluster.IdealManager
)

// Cluster construction helpers.
var (
	// NewDirectory returns a soft-state directory with the given TTL
	// (0 = default).
	NewDirectory = cluster.NewDirectory
	// StartNode boots a server node on loopback addresses.
	StartNode = cluster.StartNode
	// NewClient builds a client node.
	NewClient = cluster.NewClient
	// StartIdealManager boots a centralized load-index manager.
	StartIdealManager = cluster.StartIdealManager
)

// DiscardThreshold is the §3.2 slow-poll discard threshold used by the
// paper's Table 2 (10 ms; see DESIGN.md for the OCR restoration).
const DiscardThreshold = 10 * time.Millisecond

// Transport layer: every prototype component (nodes, clients, the
// directory server, the IDEAL manager) exchanges messages through a
// Transport. The zero configuration uses real loopback sockets; an
// in-memory fabric swaps in for deterministic, file-descriptor-free
// runs (set ProtoSubstrate.Transport to "mem").
type (
	// Transport provides stream listeners and datagram endpoints.
	Transport = transport.Transport
	// NetTransport is the real-socket transport (loopback TCP/UDP).
	NetTransport = transport.Net
	// MemTransport is the in-process fabric: seedable latency, jitter,
	// and loss, no file descriptors.
	MemTransport = transport.Mem
	// MemTransportConfig configures a MemTransport fabric.
	MemTransportConfig = transport.MemConfig
)

// NewMemTransport builds an in-memory fabric.
var NewMemTransport = transport.NewMem

// Fault injection (§3.1 availability): a FaultSchedule describes node
// crashes, pause/resume pairs, and per-link loss/latency; pass it to
// SimConfig.Faults or RunSpec.Faults and both substrates replay it
// deterministically from the same seed.
type (
	// FaultSchedule is a seedable schedule of node and link faults.
	FaultSchedule = faults.Schedule
	// FaultEvent is one timed node fault (crash, pause, or resume).
	FaultEvent = faults.NodeEvent
	// LinkRule degrades the poll path between client-server pairs with
	// probabilistic loss and added latency (-1 matches any index).
	LinkRule = faults.LinkRule
	// FaultKind distinguishes crash, pause, and resume events.
	FaultKind = faults.Kind
)

// Node fault kinds.
const (
	// Crash permanently kills a node: in-flight and queued work fails
	// and its soft state expires at the directory TTL.
	Crash = faults.Crash
	// Pause freezes a node: accepted work stalls but is not lost.
	Pause = faults.Pause
	// Resume unfreezes a paused node and re-publishes it immediately.
	Resume = faults.Resume
)

// DegradedDemo returns the canned degraded-mode schedule used by the
// "degraded" experiment: kill the first kills of n nodes at the given
// offset, with uniform poll loss on every link.
var DegradedDemo = faults.DegradedDemo

// Substrate abstraction: one RunSpec executes on either the simulator
// or the prototype, producing a RunResult with the measurements both
// share — this is how experiment drivers run the same sweep on both
// (see internal/substrate).
type (
	// Substrate executes substrate-independent runs.
	Substrate = substrate.Substrate
	// RunSpec describes one run in substrate-independent terms.
	RunSpec = substrate.RunSpec
	// RunResult carries the measurements common to both substrates.
	RunResult = substrate.RunResult
	// SimSubstrate is the discrete-event simulator substrate.
	SimSubstrate = substrate.Sim
	// ProtoSubstrate is the real-socket prototype substrate.
	ProtoSubstrate = substrate.Proto
)
