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
//   - Caller: the one stream caller — pooled connections to explicit
//     endpoints — behind every service access, manager call and
//     remote directory call.
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

// WriteRequest frames req onto w.
func WriteRequest(w *bufio.Writer, req *Request) error {
	if len(req.Service) > maxServiceName {
		return fmt.Errorf("cluster: service name too long (%d)", len(req.Service))
	}
	if len(req.Payload) > maxPayload {
		return fmt.Errorf("cluster: payload too large (%d)", len(req.Payload))
	}
	var hdr [2]byte
	hdr[0], hdr[1] = magicRequest, protoVersion
	if _, err := w.Write(hdr[:]); err != nil {
		return err
	}
	var buf [8]byte
	binary.LittleEndian.PutUint64(buf[:], req.ID)
	if _, err := w.Write(buf[:8]); err != nil {
		return err
	}
	if err := w.WriteByte(byte(len(req.Service))); err != nil {
		return err
	}
	if _, err := w.WriteString(req.Service); err != nil {
		return err
	}
	binary.LittleEndian.PutUint32(buf[:4], req.Partition)
	binary.LittleEndian.PutUint32(buf[4:8], req.ServiceUs)
	if _, err := w.Write(buf[:8]); err != nil {
		return err
	}
	binary.LittleEndian.PutUint32(buf[:4], uint32(len(req.Payload)))
	if _, err := w.Write(buf[:4]); err != nil {
		return err
	}
	if _, err := w.Write(req.Payload); err != nil {
		return err
	}
	return w.Flush()
}

// ReadRequest parses one framed request from r.
func ReadRequest(r *bufio.Reader) (*Request, error) {
	var hdr [2]byte
	if _, err := io.ReadFull(r, hdr[:]); err != nil {
		return nil, err
	}
	if hdr[0] != magicRequest {
		return nil, fmt.Errorf("cluster: bad request magic 0x%02x", hdr[0])
	}
	if hdr[1] != protoVersion {
		return nil, fmt.Errorf("cluster: unsupported version %d", hdr[1])
	}
	var req Request
	var buf [8]byte
	if _, err := io.ReadFull(r, buf[:8]); err != nil {
		return nil, err
	}
	req.ID = binary.LittleEndian.Uint64(buf[:8])
	nameLen, err := r.ReadByte()
	if err != nil {
		return nil, err
	}
	name := make([]byte, nameLen)
	if _, err := io.ReadFull(r, name); err != nil {
		return nil, err
	}
	req.Service = string(name)
	if _, err := io.ReadFull(r, buf[:8]); err != nil {
		return nil, err
	}
	req.Partition = binary.LittleEndian.Uint32(buf[:4])
	req.ServiceUs = binary.LittleEndian.Uint32(buf[4:8])
	if _, err := io.ReadFull(r, buf[:4]); err != nil {
		return nil, err
	}
	plen := binary.LittleEndian.Uint32(buf[:4])
	if plen > maxPayload {
		return nil, fmt.Errorf("cluster: payload length %d exceeds limit", plen)
	}
	if plen > 0 {
		req.Payload = make([]byte, plen)
		if _, err := io.ReadFull(r, req.Payload); err != nil {
			return nil, err
		}
	}
	return &req, nil
}

// WriteResponse frames resp onto w.
func WriteResponse(w *bufio.Writer, resp *Response) error {
	if len(resp.Payload) > maxPayload {
		return fmt.Errorf("cluster: payload too large (%d)", len(resp.Payload))
	}
	var hdr [2]byte
	hdr[0], hdr[1] = magicResponse, protoVersion
	if _, err := w.Write(hdr[:]); err != nil {
		return err
	}
	var buf [8]byte
	binary.LittleEndian.PutUint64(buf[:], resp.ID)
	if _, err := w.Write(buf[:8]); err != nil {
		return err
	}
	if err := w.WriteByte(resp.Status); err != nil {
		return err
	}
	binary.LittleEndian.PutUint32(buf[:4], resp.Load)
	if _, err := w.Write(buf[:4]); err != nil {
		return err
	}
	binary.LittleEndian.PutUint32(buf[:4], uint32(len(resp.Payload)))
	if _, err := w.Write(buf[:4]); err != nil {
		return err
	}
	if _, err := w.Write(resp.Payload); err != nil {
		return err
	}
	return w.Flush()
}

// ReadResponse parses one framed response from r.
func ReadResponse(r *bufio.Reader) (*Response, error) {
	var hdr [2]byte
	if _, err := io.ReadFull(r, hdr[:]); err != nil {
		return nil, err
	}
	if hdr[0] != magicResponse {
		return nil, fmt.Errorf("cluster: bad response magic 0x%02x", hdr[0])
	}
	if hdr[1] != protoVersion {
		return nil, fmt.Errorf("cluster: unsupported version %d", hdr[1])
	}
	var resp Response
	var buf [8]byte
	if _, err := io.ReadFull(r, buf[:8]); err != nil {
		return nil, err
	}
	resp.ID = binary.LittleEndian.Uint64(buf[:8])
	status, err := r.ReadByte()
	if err != nil {
		return nil, err
	}
	resp.Status = status
	if _, err := io.ReadFull(r, buf[:4]); err != nil {
		return nil, err
	}
	resp.Load = binary.LittleEndian.Uint32(buf[:4])
	if _, err := io.ReadFull(r, buf[:4]); err != nil {
		return nil, err
	}
	plen := binary.LittleEndian.Uint32(buf[:4])
	if plen > maxPayload {
		return nil, fmt.Errorf("cluster: payload length %d exceeds limit", plen)
	}
	if plen > 0 {
		resp.Payload = make([]byte, plen)
		if _, err := io.ReadFull(r, resp.Payload); err != nil {
			return nil, err
		}
	}
	return &resp, nil
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
