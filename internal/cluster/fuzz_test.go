package cluster

import (
	"bufio"
	"bytes"
	"fmt"
	"net"
	"testing"
	"testing/quick"
	"time"

	"finelb/internal/core"
	"finelb/internal/transport"
)

// The protocol fuzz suite holds every decoder to the same contract:
// arbitrary input — truncated, oversized, garbage — never panics and
// never allocates beyond the maxPayload bound, and any input a decoder
// accepts round-trips bit-identically through the matching encoder.
// Seed corpora live under testdata/fuzz; CI replays them in short mode
// (-run=Fuzz) and fuzzes briefly (-fuzztime=10s) in the race job.

// encodeRequest frames req into a byte slice via the production writer.
func encodeRequest(t testing.TB, req *Request) []byte {
	t.Helper()
	var b bytes.Buffer
	if err := WriteRequest(bufio.NewWriter(&b), req); err != nil {
		t.Fatalf("WriteRequest: %v", err)
	}
	return b.Bytes()
}

// encodeResponse frames resp into a byte slice via the production writer.
func encodeResponse(t testing.TB, resp *Response) []byte {
	t.Helper()
	var b bytes.Buffer
	if err := WriteResponse(bufio.NewWriter(&b), resp); err != nil {
		t.Fatalf("WriteResponse: %v", err)
	}
	return b.Bytes()
}

func FuzzDecodeRequest(f *testing.F) {
	f.Add(encodeRequest(f, &Request{ID: 1, Service: "svc", Partition: 2, ServiceUs: 300, Payload: []byte("hello")}))
	f.Add(encodeRequest(f, &Request{ID: 0, Service: "", Payload: nil}))
	f.Add([]byte{})
	f.Add([]byte{magicRequest})
	f.Add([]byte{magicRequest, protoVersion, 1, 2, 3})
	f.Add([]byte{magicResponse, protoVersion}) // wrong magic
	f.Add(bytes.Repeat([]byte{0xff}, 64))      // oversized length fields everywhere
	f.Fuzz(func(t *testing.T, data []byte) {
		req, err := ReadRequest(bufio.NewReader(bytes.NewReader(data)))
		if err != nil {
			return
		}
		if len(req.Payload) > maxPayload {
			t.Fatalf("decoded payload of %d bytes exceeds maxPayload", len(req.Payload))
		}
		if len(req.Service) > maxServiceName {
			t.Fatalf("decoded service name of %d bytes exceeds maxServiceName", len(req.Service))
		}
		// Accepted input must survive encode∘decode unchanged (the input
		// may have trailing bytes the decoder ignores, so compare values,
		// not raw bytes).
		again, err := ReadRequest(bufio.NewReader(bytes.NewReader(encodeRequest(t, req))))
		if err != nil {
			t.Fatalf("re-decode of re-encoded request: %v", err)
		}
		if again.ID != req.ID || again.Service != req.Service ||
			again.Partition != req.Partition || again.ServiceUs != req.ServiceUs ||
			!bytes.Equal(again.Payload, req.Payload) {
			t.Fatalf("request round trip mismatch: %+v != %+v", again, req)
		}
	})
}

func FuzzDecodeResponse(f *testing.F) {
	f.Add(encodeResponse(f, &Response{ID: 1, Status: StatusOK, Load: 3, Payload: []byte("ok")}))
	f.Add(encodeResponse(f, &Response{ID: 0, Status: StatusOverload}))
	f.Add([]byte{})
	f.Add([]byte{magicResponse})
	f.Add([]byte{magicResponse, protoVersion, 9, 9})
	f.Add([]byte{magicRequest, protoVersion}) // wrong magic
	f.Add(bytes.Repeat([]byte{0xff}, 64))
	f.Fuzz(func(t *testing.T, data []byte) {
		resp, err := ReadResponse(bufio.NewReader(bytes.NewReader(data)))
		if err != nil {
			return
		}
		if len(resp.Payload) > maxPayload {
			t.Fatalf("decoded payload of %d bytes exceeds maxPayload", len(resp.Payload))
		}
		again, err := ReadResponse(bufio.NewReader(bytes.NewReader(encodeResponse(t, resp))))
		if err != nil {
			t.Fatalf("re-decode of re-encoded response: %v", err)
		}
		if again.ID != resp.ID || again.Status != resp.Status ||
			again.Load != resp.Load || !bytes.Equal(again.Payload, resp.Payload) {
			t.Fatalf("response round trip mismatch: %+v != %+v", again, resp)
		}
	})
}

func FuzzDecodeInquiry(f *testing.F) {
	f.Add(EncodeInquiry(nil, 0))
	f.Add(EncodeInquiry(nil, 0xdeadbeef))
	f.Add([]byte{})
	f.Add([]byte{magicInquiry})
	f.Add([]byte{magicLoad, 1, 2, 3, 4}) // wrong magic, right size
	f.Add(bytes.Repeat([]byte{magicInquiry}, 64))
	f.Fuzz(func(t *testing.T, data []byte) {
		seq, err := DecodeInquiry(data)
		if err != nil {
			return
		}
		// A fixed-size datagram the decoder accepts must re-encode to the
		// exact input bytes.
		if out := EncodeInquiry(nil, seq); !bytes.Equal(out, data) {
			t.Fatalf("inquiry round trip: %x != %x", out, data)
		}
	})
}

func FuzzDecodeLoad(f *testing.F) {
	f.Add(EncodeLoad(nil, 0, 0))
	f.Add(EncodeLoad(nil, 7, 42))
	f.Add([]byte{})
	f.Add([]byte{magicLoad})
	f.Add([]byte{magicInquiry, 1, 2, 3, 4, 5, 6, 7, 8}) // wrong magic, right size
	f.Add(bytes.Repeat([]byte{magicLoad}, 64))
	f.Fuzz(func(t *testing.T, data []byte) {
		seq, load, err := DecodeLoad(data)
		if err != nil {
			return
		}
		if out := EncodeLoad(nil, seq, load); !bytes.Equal(out, data) {
			t.Fatalf("load round trip: %x != %x", out, data)
		}
	})
}

// pipeTransport dials every address to the client end of one
// in-process pipe.
type pipeTransport struct {
	transport.Transport
	conn net.Conn
}

func (p pipeTransport) Dial(string, time.Duration) (net.Conn, error) { return p.conn, nil }

// FuzzStreamReplies feeds arbitrary reply bytes to a stream with three
// calls pending on it, then closes the server end. No input may panic
// the stream's reader, and every call must resolve long before its
// timeout: with its own reply when the bytes carry one, with the
// stream's failure otherwise.
func FuzzStreamReplies(f *testing.F) {
	const calls = 3
	replies := func(ids ...uint64) []byte {
		var b []byte
		for _, id := range ids {
			b = append(b, encodeResponse(f, &Response{ID: id, Payload: []byte("r")})...)
		}
		return b
	}
	f.Add(replies(1, 2, 3))
	f.Add(replies(3, 1, 2))
	f.Add(replies(2, 99, 1)) // an unknown id is dropped
	f.Add(replies(1, 1, 2))  // a duplicate finds no waiter
	f.Add(append(replies(1), 0xff, magicResponse))
	f.Add(replies(1, 2, 3)[:30]) // cut inside the second reply
	f.Add([]byte{})
	f.Fuzz(func(t *testing.T, data []byte) {
		cli, srv := net.Pipe()
		defer srv.Close()
		c := NewCaller(pipeTransport{conn: cli}, 10*time.Second)
		defer c.Close()
		type result struct {
			resp *Response
			err  error
		}
		results := make(chan result, calls)
		for i := 0; i < calls; i++ {
			go func() {
				resp, err := c.Call(Endpoint{AccessAddr: "pipe"}, "svc", 0, 0, nil)
				results <- result{resp, err}
			}()
		}
		// A call writes its request only once its waiter is registered,
		// so three requests read means three calls pending.
		r := bufio.NewReader(srv)
		for i := 0; i < calls; i++ {
			if _, err := ReadRequest(r); err != nil {
				t.Fatal(err)
			}
		}
		_, _ = srv.Write(data) // fails early once a bad frame breaks the stream
		srv.Close()
		seen := map[uint64]bool{}
		timeout := time.After(5 * time.Second)
		for i := 0; i < calls; i++ {
			select {
			case res := <-results:
				if res.err != nil {
					continue
				}
				id := res.resp.ID
				if id < 1 || id > calls || seen[id] {
					t.Fatalf("a call got the reply with id %d (ids already taken: %v)", id, seen)
				}
				seen[id] = true
			case <-timeout:
				t.Fatalf("%d of %d calls unresolved after the server closed", calls-i, calls)
			}
		}
	})
}

// FuzzPollAnswers feeds arbitrary datagrams to a poll client's answer
// handler while a round with three inquiries (seqs 1-3) waits on
// servers that never answer. The input is a run of datagrams, each
// prefixed by its length mod 16. No input may panic the handler; every
// datagram that decodes as a load answer either fills one slot or
// counts late, so no slot fills twice; no inquiry stays registered
// after the round; and the round ends at its last answer or its
// deadline, never before.
func FuzzPollAnswers(f *testing.F) {
	const deadline = 20 * time.Millisecond
	answers := func(seqs ...uint32) []byte {
		var b []byte
		for _, seq := range seqs {
			b = append(append(b, loadSize), EncodeLoad(nil, seq, seq*10)...)
		}
		return b
	}
	f.Add(answers(1, 2, 3))
	f.Add(answers(3, 1, 2))
	f.Add(answers(2, 99, 1)) // an unregistered seq counts late
	f.Add(answers(1, 1, 2))  // a duplicate finds its slot filled
	f.Add(append(answers(1), 4, magicLoad, 0, 0, 0))
	f.Add(answers(1, 2, 3)[:15]) // cut inside the second answer
	f.Add([]byte{})
	f.Fuzz(func(t *testing.T, data []byte) {
		tr := transport.NewMem(transport.MemConfig{Seed: 1})
		var eps []Endpoint
		for i := 0; i < 3; i++ {
			eps = append(eps, Endpoint{NodeID: i, Service: "svc", LoadAddr: fmt.Sprintf("mem:silent-%d", i)})
		}
		c, err := NewClient(ClientConfig{
			Directory:       FixedDirectory(eps),
			Service:         "svc",
			Policy:          core.NewPollDiscard(3, deadline),
			QuarantineAfter: -1,
			Transport:       tr,
			Seed:            1,
		})
		if err != nil {
			t.Fatal(err)
		}
		defer c.Close()
		info := &AccessInfo{}
		done := make(chan error, 1)
		start := time.Now()
		go func() {
			_, _, err := c.PollRound(eps, info)
			done <- err
		}()
		waitUntil(t, func() bool { return inflight(c) == 3 }, "the round to register its inquiries")

		decoded := 0
		for len(data) > 0 {
			n := min(int(data[0])%16, len(data)-1)
			dg := data[1 : 1+n]
			data = data[1+n:]
			if _, _, err := DecodeLoad(dg); err == nil {
				decoded++
			}
			c.answer(dg, "fuzz")
		}
		select {
		case err := <-done:
			if err != nil {
				t.Fatal(err)
			}
		case <-time.After(5 * time.Second):
			t.Fatal("the round did not end at its deadline")
		}
		if info.Answered < 3 && time.Since(start) < deadline {
			t.Fatalf("the round ended after %v with %d answers, before its deadline", time.Since(start), info.Answered)
		}
		if got := int64(info.Answered) + c.LateAnswers(); got != int64(decoded) {
			t.Fatalf("%d answers decoded, but %d filed and %d counted late", decoded, info.Answered, c.LateAnswers())
		}
		if n := inflight(c); n != 0 {
			t.Fatalf("%d inquiries still registered after the round", n)
		}
	})
}

// TestProtocolRoundTripQuick checks encode∘decode = id over randomized
// values of every message type, including the boundary sizes the fuzz
// corpora can take longer to reach.
func TestProtocolRoundTripQuick(t *testing.T) {
	if err := quick.Check(func(id uint64, svc []byte, part, serviceUs uint32, payload []byte) bool {
		if len(svc) > maxServiceName {
			svc = svc[:maxServiceName]
		}
		if len(payload) > maxPayload {
			payload = payload[:maxPayload]
		}
		req := &Request{ID: id, Service: string(svc), Partition: part, ServiceUs: serviceUs, Payload: payload}
		got, err := ReadRequest(bufio.NewReader(bytes.NewReader(encodeRequest(t, req))))
		if err != nil {
			t.Logf("ReadRequest: %v", err)
			return false
		}
		return got.ID == req.ID && got.Service == req.Service &&
			got.Partition == req.Partition && got.ServiceUs == req.ServiceUs &&
			bytes.Equal(got.Payload, req.Payload)
	}, nil); err != nil {
		t.Errorf("request: %v", err)
	}

	if err := quick.Check(func(id uint64, status uint8, load uint32, payload []byte) bool {
		if len(payload) > maxPayload {
			payload = payload[:maxPayload]
		}
		resp := &Response{ID: id, Status: status, Load: load, Payload: payload}
		got, err := ReadResponse(bufio.NewReader(bytes.NewReader(encodeResponse(t, resp))))
		if err != nil {
			t.Logf("ReadResponse: %v", err)
			return false
		}
		return got.ID == resp.ID && got.Status == resp.Status &&
			got.Load == resp.Load && bytes.Equal(got.Payload, resp.Payload)
	}, nil); err != nil {
		t.Errorf("response: %v", err)
	}

	if err := quick.Check(func(seq uint32) bool {
		got, err := DecodeInquiry(EncodeInquiry(nil, seq))
		return err == nil && got == seq
	}, nil); err != nil {
		t.Errorf("inquiry: %v", err)
	}

	if err := quick.Check(func(seq, load uint32) bool {
		gotSeq, gotLoad, err := DecodeLoad(EncodeLoad(nil, seq, load))
		return err == nil && gotSeq == seq && gotLoad == load
	}, nil); err != nil {
		t.Errorf("load: %v", err)
	}
}

// TestDatagramDecodersRejectGarbage pins the malformed-input behavior
// the read paths rely on: truncated, oversized, and wrong-magic
// datagrams fail with the fixed sentinel errors (no allocation) and
// never panic.
func TestDatagramDecodersRejectGarbage(t *testing.T) {
	bad := [][]byte{
		nil,
		{},
		{magicInquiry},
		{magicLoad},
		{magicInquiry, 1, 2, 3},          // one byte short
		{magicLoad, 1, 2, 3, 4, 5, 6, 7}, // one byte short
		bytes.Repeat([]byte{magicInquiry}, inquirySize+1),
		bytes.Repeat([]byte{magicLoad}, loadSize+1),
		bytes.Repeat([]byte{0x00}, 1<<16),
	}
	for _, p := range bad {
		if _, err := DecodeInquiry(p); err == nil && len(p) == inquirySize && p[0] == magicInquiry {
			continue // actually well-formed
		} else if err == nil {
			t.Errorf("DecodeInquiry(%d bytes) accepted garbage", len(p))
		}
		if _, _, err := DecodeLoad(p); err == nil && len(p) == loadSize && p[0] == magicLoad {
			continue
		} else if err == nil {
			t.Errorf("DecodeLoad(%d bytes) accepted garbage", len(p))
		}
	}
}
