package neptune

import (
	"fmt"
	"sort"
	"sync"
	"time"

	"finelb/internal/cluster"
)

// ServerConfig configures one Neptune service replica (one node's share
// of a service).
type ServerConfig struct {
	NodeID  int
	Service string
	// Partitions this replica hosts.
	Partitions []uint32
	// Factory builds the application state for one partition.
	Factory func(partition uint32) StateMachine
	// Level selects the replication protocol.
	Level Level
	// Directory receives soft-state publishes (required: the
	// replication fan-out discovers peers through it).
	Directory *cluster.Directory
	// Workers sizes the node's worker pool (default 4: service methods
	// are real work, not exclusive-unit emulation).
	Workers int
	// EmulateServiceUs, when true, honours Request.ServiceUs by
	// sleeping before executing the method — useful to give real
	// services the paper's millisecond-scale cost profile.
	EmulateServiceUs bool
	Seed             uint64
}

// partitionState is one partition's replication state.
type partitionState struct {
	mu      sync.Mutex
	sm      StateMachine
	applied uint64              // sequence of the last applied ordered write
	pending map[uint64]envelope // out-of-order ordered writes, by seq
}

// Server hosts a set of partitions of one Neptune service on a
// cluster.Node.
type Server struct {
	cfg    ServerConfig
	node   *cluster.Node
	caller *cluster.Caller
	parts  map[uint32]*partitionState
}

// StartServer mounts the service and begins serving.
func StartServer(cfg ServerConfig) (*Server, error) {
	if cfg.Factory == nil {
		return nil, fmt.Errorf("neptune: ServerConfig.Factory is required")
	}
	if cfg.Directory == nil {
		return nil, fmt.Errorf("neptune: ServerConfig.Directory is required")
	}
	if len(cfg.Partitions) == 0 {
		return nil, fmt.Errorf("neptune: no partitions to host")
	}
	if cfg.Service == "" {
		return nil, fmt.Errorf("neptune: empty service name")
	}
	if cfg.Workers == 0 {
		cfg.Workers = 4
	}
	s := &Server{
		cfg:    cfg,
		caller: cluster.NewCaller(nil, 0),
		parts:  make(map[uint32]*partitionState, len(cfg.Partitions)),
	}
	for _, p := range cfg.Partitions {
		if _, dup := s.parts[p]; dup {
			return nil, fmt.Errorf("neptune: duplicate partition %d", p)
		}
		s.parts[p] = &partitionState{
			sm:      cfg.Factory(p),
			pending: make(map[uint64]envelope),
		}
	}
	node, err := cluster.StartNode(cluster.NodeConfig{
		ID:         cfg.NodeID,
		Service:    cfg.Service,
		Partitions: cfg.Partitions,
		Workers:    cfg.Workers,
		Directory:  cfg.Directory,
		Handler:    cluster.HandlerFunc(s.serve),
		Seed:       cfg.Seed,
	})
	if err != nil {
		s.caller.Close()
		return nil, err
	}
	s.node = node
	return s, nil
}

// Node exposes the underlying cluster node (addresses, stats).
func (s *Server) Node() *cluster.Node { return s.node }

// Endpoint returns the replica's published endpoint.
func (s *Server) Endpoint() cluster.Endpoint { return s.node.Endpoint() }

// Close stops serving.
func (s *Server) Close() error {
	err := s.node.Close()
	s.caller.Close()
	return err
}

// AppliedSeq returns the partition's last applied ordered-write
// sequence number (diagnostics and tests).
func (s *Server) AppliedSeq(partition uint32) (uint64, error) {
	ps, ok := s.parts[partition]
	if !ok {
		return 0, fmt.Errorf("neptune: partition %d not hosted", partition)
	}
	ps.mu.Lock()
	defer ps.mu.Unlock()
	return ps.applied, nil
}

// fail formats an application-level error payload.
func fail(format string, args ...any) ([]byte, uint8) {
	return []byte(fmt.Sprintf(format, args...)), cluster.StatusAppError
}

// serve is the node's Handler: it decodes the Neptune envelope and
// dispatches on the operation.
func (s *Server) serve(req *cluster.Request) ([]byte, uint8) {
	ps, ok := s.parts[req.Partition]
	if !ok {
		return fail("partition %d not hosted here", req.Partition)
	}
	env, err := decodeEnvelope(req.Payload)
	if err != nil {
		return fail("%v", err)
	}
	if s.cfg.EmulateServiceUs && req.ServiceUs > 0 {
		time.Sleep(time.Duration(req.ServiceUs) * time.Microsecond)
	}
	switch env.op {
	case opQuery:
		ps.mu.Lock()
		out, err := ps.sm.Query(env.method, env.arg)
		ps.mu.Unlock()
		if err != nil {
			return fail("%v", err)
		}
		return out, cluster.StatusOK

	case opWrite:
		switch s.cfg.Level {
		case Commutative:
			ps.mu.Lock()
			out, err := ps.sm.Apply(env.method, env.arg)
			ps.mu.Unlock()
			if err != nil {
				return fail("%v", err)
			}
			return out, cluster.StatusOK
		case PrimaryOrdered:
			return s.primaryWrite(req.Partition, ps, env)
		default:
			return fail("unknown consistency level %d", int(s.cfg.Level))
		}

	case opReplicate:
		return s.applyReplicated(ps, env)

	case opSnapshot:
		ps.mu.Lock()
		snap, err := ps.sm.Snapshot()
		seq := ps.applied
		ps.mu.Unlock()
		if err != nil {
			return fail("%v", err)
		}
		return encodeSnapshotReply(snapshotReply{seq: seq, data: snap}), cluster.StatusOK

	default:
		return fail("unknown op %d", env.op)
	}
}

// replicas returns the live replica set of a partition, sorted by node
// id (the first entry is the primary).
func (s *Server) replicas(partition uint32) []cluster.Endpoint {
	eps, _ := s.cfg.Directory.Lookup(s.cfg.Service, partition) // an in-process lookup never fails
	return eps
}

// isPrimary reports whether this replica is the partition's primary:
// the live replica with the lowest node id.
func (s *Server) isPrimary(partition uint32) bool {
	eps := s.replicas(partition)
	return len(eps) > 0 && eps[0].NodeID == s.cfg.NodeID
}

// primaryWrite sequences an ordered write, applies it locally, and
// forwards it to every secondary before acknowledging (Neptune level 2).
func (s *Server) primaryWrite(partition uint32, ps *partitionState, env envelope) ([]byte, uint8) {
	if !s.isPrimary(partition) {
		return fail("not the primary for partition %d", partition)
	}
	// Sequence and apply under the partition lock so concurrent writes
	// at the primary serialize.
	ps.mu.Lock()
	seq := ps.applied + 1
	out, err := ps.sm.Apply(env.method, env.arg)
	if err != nil {
		ps.mu.Unlock()
		return fail("%v", err)
	}
	ps.applied = seq
	ps.mu.Unlock()

	// Forward to secondaries synchronously; the write is acknowledged
	// only once every live secondary has applied it.
	fwd := envelope{op: opReplicate, seq: seq, method: env.method, arg: env.arg}
	payload, err := encodeEnvelope(fwd)
	if err != nil {
		return fail("%v", err)
	}
	for _, ep := range s.replicas(partition) {
		if ep.NodeID == s.cfg.NodeID {
			continue
		}
		resp, err := s.caller.Call(ep, s.cfg.Service, partition, 0, payload)
		if err != nil {
			return fail("replicate to node %d: %v", ep.NodeID, err)
		}
		if resp.Status != cluster.StatusOK {
			return fail("replicate to node %d: status %d: %s", ep.NodeID, resp.Status, resp.Payload)
		}
	}
	return out, cluster.StatusOK
}

// applyReplicated applies a primary-forwarded write in sequence order,
// buffering out-of-order arrivals.
func (s *Server) applyReplicated(ps *partitionState, env envelope) ([]byte, uint8) {
	ps.mu.Lock()
	defer ps.mu.Unlock()
	switch {
	case env.seq <= ps.applied:
		// Duplicate delivery (e.g. a retried forward): idempotent.
		return nil, cluster.StatusOK
	case env.seq > ps.applied+1:
		ps.pending[env.seq] = env
		return nil, cluster.StatusOK
	}
	// In order: apply it and drain any now-contiguous pending writes.
	if _, err := ps.sm.Apply(env.method, env.arg); err != nil {
		return fail("%v", err)
	}
	ps.applied = env.seq
	for {
		next, ok := ps.pending[ps.applied+1]
		if !ok {
			return nil, cluster.StatusOK
		}
		delete(ps.pending, ps.applied+1)
		if _, err := ps.sm.Apply(next.method, next.arg); err != nil {
			return fail("%v", err)
		}
		ps.applied = next.seq
	}
}

// ResyncFrom pulls a snapshot of every hosted partition from peer and
// installs it, bringing a (re)started replica up to date before it
// publishes itself. Call before the replica takes writes.
func (s *Server) ResyncFrom(peer cluster.Endpoint) error {
	payload, err := encodeEnvelope(envelope{op: opSnapshot})
	if err != nil {
		return err
	}
	parts := make([]uint32, 0, len(s.parts))
	for p := range s.parts {
		parts = append(parts, p)
	}
	sort.Slice(parts, func(i, j int) bool { return parts[i] < parts[j] })
	for _, p := range parts {
		resp, err := s.caller.Call(peer, s.cfg.Service, p, 0, payload)
		if err != nil {
			return fmt.Errorf("neptune: snapshot of partition %d from node %d: %w", p, peer.NodeID, err)
		}
		if resp.Status != cluster.StatusOK {
			return fmt.Errorf("neptune: snapshot of partition %d from node %d: status %d: %s",
				p, peer.NodeID, resp.Status, resp.Payload)
		}
		reply, err := decodeSnapshotReply(resp.Payload)
		if err != nil {
			return err
		}
		ps := s.parts[p]
		ps.mu.Lock()
		err = ps.sm.Restore(reply.data)
		if err == nil {
			ps.applied = reply.seq
			ps.pending = make(map[uint64]envelope)
		}
		ps.mu.Unlock()
		if err != nil {
			return fmt.Errorf("neptune: restore partition %d: %w", p, err)
		}
	}
	return nil
}
