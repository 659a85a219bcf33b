// Package cluster is the real-socket prototype of the paper's §3:
// a Neptune-lite flat service infrastructure on which the random
// polling load-balancing policy (and the random, round-robin and IDEAL
// baselines) run over genuine UDP and TCP sockets.
//
// Components, mirroring Figure 5 of the paper:
//
//   - Directory: the service availability subsystem — a soft-state
//     publish/subscribe channel. Servers republish their services
//     periodically; entries expire when refreshes stop. Nodes and
//     clients take any ServiceDirectory: the in-process Directory, a
//     RemoteDirectory, or a FixedDirectory endpoint list.
//   - Node: a server node — a TCP service access point feeding a
//     request queue and worker pool, plus a UDP load-index server that
//     answers load inquiries.
//   - Client: a client node — service mapping table, policy-driven
//     server selection, and poll rounds (each sends its inquiries
//     from, and reads the answers on, one pooled UDP socket, with a
//     discard deadline).
//   - Caller: the one stream caller — one multiplexed connection per
//     endpoint, its replies matched to calls by request ID — behind
//     every service access, manager call and remote directory call.
//   - IdealManager: the centralized load-index manager used to emulate
//     the IDEAL policy in §4, run as a Node service on the node
//     protocol.
//   - DirServer: the directory served to other processes, one more
//     Node service; a RemoteDirectory calls it through a Caller.
//
// All components bind loopback addresses by default so a 16-server,
// 6-client "cluster" runs inside one process while still paying real
// syscall, socket, and scheduling costs.
package cluster

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
)

// Protocol magic bytes.
const (
	magicRequest  = 0x53 // 'S': service access request
	magicResponse = 0x52 // 'R': service access response
	magicInquiry  = 0x51 // 'Q': load inquiry (UDP)
	magicLoad     = 0x41 // 'A': load answer (UDP)
	protoVersion  = 1
)

// Status codes in service responses.
const (
	StatusOK        = 0
	StatusOverload  = 1 // request queue full
	StatusNoService = 2 // service/partition not hosted here
	StatusAppError  = 3 // the mounted Handler reported an application error
)

// maxPayload bounds request/response payloads to keep a corrupted
// length field from allocating unbounded memory.
const maxPayload = 1 << 20

// maxServiceName bounds the service-name field.
const maxServiceName = 255

// Request is one service access request as carried on the wire.
type Request struct {
	ID        uint64
	Service   string
	Partition uint32
	// ServiceUs is the emulated service demand in microseconds. The
	// prototype's service processing is a sleeping/spinning
	// microbenchmark, as in the paper (§4).
	ServiceUs uint32
	Payload   []byte
}

// Response is the reply to a Request.
type Response struct {
	ID      uint64
	Status  uint8
	Load    uint32 // server load index when the reply was generated
	Payload []byte
}

// Frame layouts. Every integer is little-endian.
//
//	request:  magic(1) version(1) id(8) nameLen(1) name(nameLen)
//	          partition(4) serviceUs(4) payloadLen(4) payload
//	response: magic(1) version(1) id(8) status(1) load(4)
//	          payloadLen(4) payload
//
// The readers peek each fixed-size header in the bufio.Reader's own
// buffer and the writers build it in the bufio.Writer's, so a frame
// costs no scratch allocation; only the decoded value, its service name
// and its payload are allocated.
const (
	requestHeadSize  = 11 // magic, version, id, nameLen
	requestTailSize  = 12 // partition, serviceUs, payloadLen
	responseHeadSize = 19 // magic, version, id, status, load, payloadLen
)

// check rejects a request no frame can carry.
func (req *Request) check() error {
	if len(req.Service) > maxServiceName {
		return fmt.Errorf("cluster: service name too long (%d)", len(req.Service))
	}
	if len(req.Payload) > maxPayload {
		return fmt.Errorf("cluster: payload too large (%d)", len(req.Payload))
	}
	return nil
}

// WriteRequest frames req onto w and flushes it.
func WriteRequest(w *bufio.Writer, req *Request) error {
	if err := req.check(); err != nil {
		return err
	}
	b := append(w.AvailableBuffer(), magicRequest, protoVersion)
	b = binary.LittleEndian.AppendUint64(b, req.ID)
	b = append(b, byte(len(req.Service)))
	b = append(b, req.Service...)
	b = binary.LittleEndian.AppendUint32(b, req.Partition)
	b = binary.LittleEndian.AppendUint32(b, req.ServiceUs)
	b = binary.LittleEndian.AppendUint32(b, uint32(len(req.Payload)))
	return writeFrame(w, b, req.Payload)
}

// ReadRequest parses one framed request from r. r's buffer must hold a
// request header with its service name (at most 267 bytes; the default
// bufio size holds it).
func ReadRequest(r *bufio.Reader) (*Request, error) {
	h, err := r.Peek(requestHeadSize)
	if err != nil {
		return nil, err
	}
	if err := checkMagic(h, magicRequest, "request"); err != nil {
		return nil, err
	}
	req := &Request{ID: binary.LittleEndian.Uint64(h[2:10])}
	nameLen := int(h[10])
	_, _ = r.Discard(requestHeadSize)
	t, err := r.Peek(nameLen + requestTailSize)
	if err != nil {
		return nil, err
	}
	req.Service = string(t[:nameLen])
	t = t[nameLen:]
	req.Partition = binary.LittleEndian.Uint32(t[0:4])
	req.ServiceUs = binary.LittleEndian.Uint32(t[4:8])
	plen := binary.LittleEndian.Uint32(t[8:12])
	_, _ = r.Discard(nameLen + requestTailSize)
	if req.Payload, err = readPayload(r, plen); err != nil {
		return nil, err
	}
	return req, nil
}

// WriteResponse frames resp onto w and flushes it.
func WriteResponse(w *bufio.Writer, resp *Response) error {
	if len(resp.Payload) > maxPayload {
		return fmt.Errorf("cluster: payload too large (%d)", len(resp.Payload))
	}
	b := append(w.AvailableBuffer(), magicResponse, protoVersion)
	b = binary.LittleEndian.AppendUint64(b, resp.ID)
	b = append(b, resp.Status)
	b = binary.LittleEndian.AppendUint32(b, resp.Load)
	b = binary.LittleEndian.AppendUint32(b, uint32(len(resp.Payload)))
	return writeFrame(w, b, resp.Payload)
}

// ReadResponse parses one framed response from r.
func ReadResponse(r *bufio.Reader) (*Response, error) {
	h, err := r.Peek(responseHeadSize)
	if err != nil {
		return nil, err
	}
	if err := checkMagic(h, magicResponse, "response"); err != nil {
		return nil, err
	}
	resp := &Response{
		ID:     binary.LittleEndian.Uint64(h[2:10]),
		Status: h[10],
		Load:   binary.LittleEndian.Uint32(h[11:15]),
	}
	plen := binary.LittleEndian.Uint32(h[15:19])
	_, _ = r.Discard(responseHeadSize)
	if resp.Payload, err = readPayload(r, plen); err != nil {
		return nil, err
	}
	return resp, nil
}

// writeFrame writes a header built in w.AvailableBuffer, then the
// payload, and flushes the frame.
func writeFrame(w *bufio.Writer, head, payload []byte) error {
	if _, err := w.Write(head); err != nil {
		return err
	}
	if _, err := w.Write(payload); err != nil {
		return err
	}
	return w.Flush()
}

// checkMagic validates a frame's magic and version bytes.
func checkMagic(h []byte, magic byte, kind string) error {
	if h[0] != magic {
		return fmt.Errorf("cluster: bad %s magic 0x%02x", kind, h[0])
	}
	if h[1] != protoVersion {
		return fmt.Errorf("cluster: unsupported version %d", h[1])
	}
	return nil
}

// readPayload reads a payload of n bytes, bounded by maxPayload; an
// empty payload is nil.
func readPayload(r *bufio.Reader, n uint32) ([]byte, error) {
	if n > maxPayload {
		return nil, fmt.Errorf("cluster: payload length %d exceeds limit", n)
	}
	if n == 0 {
		return nil, nil
	}
	p := make([]byte, n)
	if _, err := io.ReadFull(r, p); err != nil {
		return nil, err
	}
	return p, nil
}

// Load-inquiry datagrams are fixed size: magic(1) + seq(4) [+ load(4)].
const (
	inquirySize = 5
	loadSize    = 9
)

// EncodeInquiry builds a load-inquiry datagram.
//
//lint:noalloc
func EncodeInquiry(buf []byte, seq uint32) []byte {
	buf = buf[:0]
	buf = append(buf, magicInquiry)
	buf = binary.LittleEndian.AppendUint32(buf, seq)
	return buf
}

// Datagram decode errors are fixed sentinels: the poll path discards
// malformed datagrams at line rate, so even the error path must not
// allocate.
var (
	errBadInquiry = errors.New("cluster: bad inquiry datagram")
	errBadLoad    = errors.New("cluster: bad load datagram")
)

// DecodeInquiry parses a load-inquiry datagram.
//
//lint:noalloc
func DecodeInquiry(p []byte) (seq uint32, err error) {
	if len(p) != inquirySize || p[0] != magicInquiry {
		return 0, errBadInquiry
	}
	return binary.LittleEndian.Uint32(p[1:5]), nil
}

// EncodeLoad builds a load-answer datagram.
//
//lint:noalloc
func EncodeLoad(buf []byte, seq, load uint32) []byte {
	buf = buf[:0]
	buf = append(buf, magicLoad)
	buf = binary.LittleEndian.AppendUint32(buf, seq)
	buf = binary.LittleEndian.AppendUint32(buf, load)
	return buf
}

// DecodeLoad parses a load-answer datagram.
//
//lint:noalloc
func DecodeLoad(p []byte) (seq, load uint32, err error) {
	if len(p) != loadSize || p[0] != magicLoad {
		return 0, 0, errBadLoad
	}
	return binary.LittleEndian.Uint32(p[1:5]), binary.LittleEndian.Uint32(p[5:9]), nil
}
