package cluster

import (
	"encoding/json"
	"fmt"
	"time"

	"finelb/internal/transport"
)

// DirServer is the cross-process form of the service availability
// subsystem: the paper's "highly available well-known central
// directory" alternative to IP multicast (§3.1). To the cluster it is
// one more service: it runs on a Node whose Handler serves
// directoryService on the node protocol, in front of an in-process
// Directory, and RemoteDirectory reaches it through a Caller.
//
// Every request payload is one op byte followed by a JSON Endpoint. A
// publish carries the whole endpoint, a withdraw its NodeID and
// Service, and a lookup its Service, with the partition in the
// request's Partition field; a lookup is answered with the live
// endpoints as a JSON array. A malformed request is answered
// StatusAppError and changes nothing.
type DirServer struct {
	dir  *Directory
	node *Node
}

// directoryService is the service name a DirServer's node serves.
const directoryService = "directory"

// dirTimeout bounds one directory call. Client.Refresh runs inline on
// access retries and on the IDEAL miss path, so a hung directory must
// not hold them for a whole accessTimeout.
const dirTimeout = time.Second

// Directory request ops, the first payload byte.
const (
	dirPublish  = 'P'
	dirWithdraw = 'W'
	dirLookup   = 'L'
)

// StartDirServer starts a directory node on tr (the default
// real-socket transport when nil) in front of the given directory (a
// fresh one when dir is nil).
func StartDirServer(tr transport.Transport, dir *Directory, ttl time.Duration) (*DirServer, error) {
	if dir == nil {
		dir = NewDirectory(ttl)
	}
	s := &DirServer{dir: dir}
	// No contention model, and a private metrics catalog (nil Metrics):
	// directory traffic is bookkeeping, not service accesses of a run.
	node, err := StartNode(NodeConfig{
		Service:   directoryService,
		Transport: tr,
		Handler:   HandlerFunc(s.serve),
		SlowProb:  -1,
	})
	if err != nil {
		return nil, err
	}
	s.node = node
	return s, nil
}

// Addr returns the server's stream address.
func (s *DirServer) Addr() string { return s.node.AccessAddr() }

// Directory returns the backing directory (for inspection in tests).
func (s *DirServer) Directory() *Directory { return s.dir }

// Close stops the server.
func (s *DirServer) Close() error { return s.node.Close() }

// serve is the directory node's Handler.
func (s *DirServer) serve(req *Request) ([]byte, uint8) {
	if len(req.Payload) == 0 {
		return nil, StatusAppError
	}
	var ep Endpoint
	if err := json.Unmarshal(req.Payload[1:], &ep); err != nil || ep.Service == "" {
		return nil, StatusAppError
	}
	switch req.Payload[0] {
	case dirPublish:
		s.dir.Publish(ep)
		return nil, StatusOK
	case dirWithdraw:
		s.dir.Withdraw(ep.NodeID, ep.Service)
		return nil, StatusOK
	case dirLookup:
		eps, _ := s.dir.Lookup(ep.Service, req.Partition) // an in-process lookup never fails
		out, _ := json.Marshal(eps)                       // plain structs always encode
		return out, StatusOK
	}
	return nil, StatusAppError
}

// RemoteDirectory is the client stub for a DirServer: it satisfies the
// publish/lookup needs of nodes and clients in other processes.
type RemoteDirectory struct {
	calls *Caller
	ep    Endpoint
}

// DialDirectory returns a stub for the DirServer at addr, reached over
// tr (the default real-socket transport when nil). Connections are
// made on first use.
func DialDirectory(tr transport.Transport, addr string) (*RemoteDirectory, error) {
	return &RemoteDirectory{calls: NewCaller(tr, dirTimeout), ep: Endpoint{AccessAddr: addr}}, nil
}

// Close releases the stub's connections.
func (r *RemoteDirectory) Close() error {
	r.calls.Close()
	return nil
}

// call sends one op with ep as its argument and returns the reply
// payload.
func (r *RemoteDirectory) call(op byte, ep Endpoint, partition uint32) ([]byte, error) {
	arg, _ := json.Marshal(ep) // a plain struct always encodes
	return r.calls.callOK(r.ep, directoryService, partition, append([]byte{op}, arg...))
}

// Publish announces ep. A failed call is dropped: the next heartbeat
// republishes.
func (r *RemoteDirectory) Publish(ep Endpoint) { _, _ = r.call(dirPublish, ep, 0) }

// Withdraw removes a node's entry for a service. A failed call is
// dropped: the entry then expires at its TTL.
func (r *RemoteDirectory) Withdraw(nodeID int, service string) {
	_, _ = r.call(dirWithdraw, Endpoint{NodeID: nodeID, Service: service}, 0)
}

// Lookup queries the live endpoints for (service, partition).
func (r *RemoteDirectory) Lookup(service string, partition uint32) ([]Endpoint, error) {
	out, err := r.call(dirLookup, Endpoint{Service: service}, partition)
	if err != nil {
		return nil, err
	}
	var eps []Endpoint
	if err := json.Unmarshal(out, &eps); err != nil {
		return nil, fmt.Errorf("cluster: bad directory reply: %w", err)
	}
	return eps, nil
}
