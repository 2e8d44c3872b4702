package wire

import (
	"bytes"
	"encoding/binary"
	"math"
	"math/rand"
	"net"
	"runtime"
	"strings"
	"sync"
	"testing"

	"pico/internal/nn"
	"pico/internal/partition"
	"pico/internal/tensor"
)

// rect is the output region [rlo,rhi) x [clo,chi).
func rect(rlo, rhi, clo, chi int) partition.Rect {
	return partition.Rect{Rows: partition.Range{Lo: rlo, Hi: rhi}, Cols: partition.Range{Lo: clo, Hi: chi}}
}

// pipePair returns two framed connections talking to each other.
func pipePair() (*Conn, *Conn) {
	a, b := net.Pipe()
	return NewConn(a), NewConn(b)
}

func TestRoundTripMessage(t *testing.T) {
	a, b := pipePair()
	defer a.Close()
	defer b.Close()

	done := make(chan error, 1)
	go func() {
		done <- a.SendExec(9, &ExecHeader{Out: rect(2, 5, 0, 4), TileC: 1, TileH: 3, TileW: 1}, []byte{1, 2, 3})
	}()
	msg, err := b.Recv()
	if err != nil {
		t.Fatal(err)
	}
	if err := <-done; err != nil {
		t.Fatal(err)
	}
	if msg.Type != MsgExec {
		t.Fatalf("type = %v", msg.Type)
	}
	if msg.ReqID != 9 {
		t.Fatalf("reqID = %d", msg.ReqID)
	}
	var hdr ExecHeader
	if err := msg.DecodeExec(&hdr); err != nil {
		t.Fatal(err)
	}
	if want := (ExecHeader{Out: rect(2, 5, 0, 4), TileC: 1, TileH: 3, TileW: 1}); hdr != want {
		t.Fatalf("header = %+v, want %+v", hdr, want)
	}
	if string(msg.Payload) != "\x01\x02\x03" {
		t.Fatalf("payload = %v", msg.Payload)
	}
}

func TestNilHeader(t *testing.T) {
	a, b := pipePair()
	defer a.Close()
	defer b.Close()
	go func() { _ = a.Send(MsgPing, nil, nil) }()
	msg, err := b.Recv()
	if err != nil {
		t.Fatal(err)
	}
	if msg.Type != MsgPing || msg.ReqID != 0 || len(msg.Payload) != 0 {
		t.Fatalf("msg = %+v", msg)
	}
}

func TestRequestIDSurvivesWire(t *testing.T) {
	a, b := pipePair()
	defer a.Close()
	defer b.Close()
	const id = ^uint64(0) - 3
	go func() { _ = a.SendRequest(MsgPing, id, nil, nil) }()
	msg, err := b.Recv()
	if err != nil {
		t.Fatal(err)
	}
	if msg.ReqID != id {
		t.Fatalf("reqID = %d, want %d", msg.ReqID, id)
	}
}

func TestBadMagicRejected(t *testing.T) {
	a, b := net.Pipe()
	defer a.Close()
	conn := NewConn(b)
	defer conn.Close()
	go func() {
		_, _ = a.Write([]byte("JUNKxxxxxxxxxxxxxxxxxxxxxxxxx"))
	}()
	if _, err := conn.Recv(); err == nil || !strings.Contains(err.Error(), "magic") {
		t.Fatalf("err = %v, want bad magic", err)
	}
}

// prefix hand-builds a v2 frame prefix for corruption tests.
func prefix(t MsgType, reqID uint64, hlen uint32, plen uint64) []byte {
	pre := make([]byte, prefixLen)
	copy(pre[:4], magic[:])
	pre[4] = byte(t)
	binary.LittleEndian.PutUint64(pre[5:13], reqID)
	binary.LittleEndian.PutUint32(pre[13:17], hlen)
	binary.LittleEndian.PutUint64(pre[17:25], plen)
	return pre
}

func TestOversizeLengthsRejected(t *testing.T) {
	cases := []struct {
		name string
		pre  []byte
		want string
	}{
		{"header", prefix(MsgPing, 0, 0x7FFFFFFF, 0), "header length"},
		{"payload", prefix(MsgPing, 0, 0, uint64(maxPayloadBytes)+1), "payload length"},
		{"payload-huge", prefix(MsgPing, 0, 0, ^uint64(0)), "payload length"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			a, b := net.Pipe()
			defer a.Close()
			conn := NewConn(b)
			defer conn.Close()
			go func() { _, _ = a.Write(tc.pre) }()
			if _, err := conn.Recv(); err == nil || !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("err = %v, want %s cap", err, tc.want)
			}
		})
	}
}

func TestTensorCodecRoundTrip(t *testing.T) {
	src := tensor.RandomInput(nn.Shape{C: 3, H: 7, W: 5}, 2)
	payload := EncodeTensor(src)
	back, err := DecodeTensor(3, 7, 5, payload)
	if err != nil {
		t.Fatal(err)
	}
	if !tensor.Equal(src, back) {
		t.Fatal("tensor codec not lossless")
	}
}

// TestCodecFastMatchesPortable property-tests the zero-copy encode/decode
// paths against the per-element reference for bit identity, including NaN
// payloads and negative-zero bit patterns drawn from random uint32 bits.
func TestCodecFastMatchesPortable(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	for trial := 0; trial < 50; trial++ {
		c, h, w := 1+rng.Intn(4), 1+rng.Intn(9), 1+rng.Intn(9)
		src := tensor.New(c, h, w)
		for i := range src.Data {
			src.Data[i] = math.Float32frombits(rng.Uint32())
		}
		fast := EncodeTensor(src)
		portable := EncodeTensorPortable(src)
		if !bytes.Equal(fast, portable) {
			t.Fatalf("trial %d: fast and portable encodings differ", trial)
		}
		view, pooled := MapBytes(tensor.MapOf(src))
		if !bytes.Equal(view, portable) {
			t.Fatalf("trial %d: TensorBytes differs from portable encoding", trial)
		}
		backFast, err := DecodeTensor(c, h, w, portable)
		if err != nil {
			t.Fatal(err)
		}
		backPortable, err := DecodeTensorPortable(c, h, w, fast)
		if err != nil {
			t.Fatal(err)
		}
		for i := range src.Data {
			want := math.Float32bits(src.Data[i])
			if math.Float32bits(backFast.Data[i]) != want {
				t.Fatalf("trial %d: fast decode bit mismatch at %d", trial, i)
			}
			if math.Float32bits(backPortable.Data[i]) != want {
				t.Fatalf("trial %d: portable decode bit mismatch at %d", trial, i)
			}
		}
		if pooled {
			PutBuffer(view)
		}
		PutBuffer(fast)
		PutBuffer(portable)
	}
}

// TestTensorBytesAliasing: on little-endian hosts TensorBytes must alias
// the tensor's storage (that is the zero-copy contract).
func TestTensorBytesAliasing(t *testing.T) {
	if !hostLittleEndian {
		t.Skip("big-endian host: TensorBytes copies by design")
	}
	src := tensor.New(1, 2, 2)
	view, pooled := MapBytes(tensor.MapOf(src))
	if pooled {
		t.Fatal("little-endian TensorBytes returned a pooled copy")
	}
	src.Data[0] = math.Float32frombits(0xDEADBEEF)
	if binary.LittleEndian.Uint32(view) != 0xDEADBEEF {
		t.Fatal("TensorBytes does not alias tensor storage")
	}
}

func TestTensorCodecErrors(t *testing.T) {
	if _, err := DecodeTensor(0, 1, 1, nil); err == nil {
		t.Fatal("zero extent accepted")
	}
	if _, err := DecodeTensor(1, 2, 2, make([]byte, 15)); err == nil {
		t.Fatal("short payload accepted")
	}
	if _, err := DecodeTensorPortable(0, 1, 1, nil); err == nil {
		t.Fatal("portable: zero extent accepted")
	}
	if _, err := DecodeTensorPortable(1, 2, 2, make([]byte, 15)); err == nil {
		t.Fatal("portable: short payload accepted")
	}
	// 2^22 * 2^21 * 2^21 wraps to 0 in 64-bit int arithmetic: an empty
	// payload once "matched" it and decoded to a tensor claiming 2^64 cells.
	c, h, w := overflowExtent()
	if _, err := DecodeTensor(c, h, w, nil); err == nil {
		t.Fatal("extent whose product overflows int accepted")
	}
	if _, err := DecodeTensorPortable(c, h, w, nil); err == nil {
		t.Fatal("portable: extent whose product overflows int accepted")
	}
	if _, err := DecodeTensor(1<<10, 1<<10, 1<<10, nil); err == nil {
		t.Fatal("extent beyond the payload cap accepted")
	}
	if _, err := DecodeMap(7, 1, 1, 1, 0, []byte{0}); err == nil {
		t.Fatal("unknown dtype accepted")
	}
}

// overflowExtent is a hostile extent whose element count wraps int: 2^64 on
// 64-bit hosts (the dimensions are variables so the products are not
// compile-time constants). All three fit the exec header's int32 fields.
func overflowExtent() (c, h, w int) { return 1 << 22, 1 << 21, 1 << 21 }

func TestExecHeaderBinaryRoundTrip(t *testing.T) {
	headers := []ExecHeader{
		{},
		{Out: rect(3, 4, -1, 1<<30), TileC: 6, TileH: 7, TileW: 8},
		{Out: rect(math.MinInt32, math.MaxInt32, 10, 20), TileC: -1},
		{TileC: 16, TileH: 4, TileW: 4, DType: DTypeInt8, Scale: 0.0078125},
	}
	for i, want := range headers {
		buf := want.appendBinary(nil)
		if len(buf) != 36 {
			t.Fatalf("header %d: %d bytes, want 36", i, len(buf))
		}
		var got ExecHeader
		if err := got.decodeBinary(buf); err != nil {
			t.Fatalf("header %d: %v", i, err)
		}
		if got != want {
			t.Fatalf("header %d: got %+v want %+v", i, got, want)
		}
	}
	// Any other length is refused: short, long, and a v5 header (68 bytes
	// plus the model name).
	var h ExecHeader
	for _, n := range []int{0, execHeaderLen - 1, execHeaderLen + 1, 68, 68 + 5} {
		if err := h.decodeBinary(make([]byte, n)); err == nil {
			t.Fatalf("%d-byte exec header accepted", n)
		}
	}
}

func TestExecResultHeaderBinaryRoundTrip(t *testing.T) {
	headers := []ExecResultHeader{
		{},
		{C: 3, H: 4, W: 5, ComputeSeconds: 0.125},
		{C: 1, H: 1, W: 1, ComputeSeconds: math.Inf(1)},
		{C: 8, H: 3, W: 9, DType: DTypeInt8, Scale: 0.031, ComputeSeconds: 1.5},
		{C: 2, H: 2, W: 2, ComputeSeconds: 0.5,
			KernelSeconds: [tensor.NumKinds]float64{0.1, 0.2, 0, 1e-9, math.MaxFloat64}},
	}
	for i, want := range headers {
		buf := want.appendBinary(nil)
		if len(buf) != 68 {
			t.Fatalf("header %d: %d bytes, want 68", i, len(buf))
		}
		var got ExecResultHeader
		if err := got.decodeBinary(buf); err != nil {
			t.Fatalf("header %d: %v", i, err)
		}
		if got != want {
			t.Fatalf("header %d: got %+v want %+v", i, got, want)
		}
	}
	var h ExecResultHeader
	if err := h.decodeBinary(make([]byte, execResultHeaderLen+1)); err == nil {
		t.Fatal("oversize exec-result header accepted")
	}
	// A v3 peer's result header (no kernel seconds) and a v5 one (task id
	// and row offset) fail closed.
	for _, n := range []int{40, 80} {
		if err := h.decodeBinary(make([]byte, n)); err == nil {
			t.Fatalf("%d-byte exec-result header accepted", n)
		}
	}
}

// FuzzExecHeaders: the exec headers are fixed-layout binary, so arbitrary
// bytes either fail to decode or decode to a header that re-encodes to
// exactly those bytes — no field dropped, truncated or widened on the way.
func FuzzExecHeaders(f *testing.F) {
	f.Add((&ExecHeader{Out: rect(0, 8, 2, 6), TileC: 4, TileH: 10, TileW: 6, DType: DTypeInt8, Scale: 0.5}).appendBinary(nil))
	f.Add((&ExecResultHeader{C: 4, H: 8, W: 4, ComputeSeconds: 0.25,
		KernelSeconds: [tensor.NumKinds]float64{1e-3, 0, 2e-4}}).appendBinary(nil))
	f.Add([]byte{})
	f.Add(bytes.Repeat([]byte{0xFF}, execHeaderLen))       // -1s and a NaN scale
	f.Add(bytes.Repeat([]byte{0x7F}, execResultHeaderLen)) // NaN payloads
	f.Add(make([]byte, 68+5))                              // a v5 exec header naming "model"
	f.Add(make([]byte, 80))                                // a v5 exec-result header
	f.Fuzz(func(t *testing.T, b []byte) {
		var h ExecHeader
		if (&Message{Type: MsgExec, Header: b}).DecodeExec(&h) == nil {
			if got := h.appendBinary(nil); !bytes.Equal(got, b) {
				t.Fatalf("exec header %x decoded to %+v, which re-encodes to %x", b, h, got)
			}
		}
		var r ExecResultHeader
		if (&Message{Type: MsgExecResult, Header: b}).DecodeExecResult(&r) == nil {
			if got := r.appendBinary(nil); !bytes.Equal(got, b) {
				t.Fatalf("exec-result header %x decoded to %+v, which re-encodes to %x", b, r, got)
			}
		}
	})
}

func TestDecodeExecTypeMismatch(t *testing.T) {
	m := &Message{Type: MsgPing}
	if err := m.DecodeExec(&ExecHeader{}); err == nil {
		t.Fatal("DecodeExec accepted a ping frame")
	}
	if err := m.DecodeExecResult(&ExecResultHeader{}); err == nil {
		t.Fatal("DecodeExecResult accepted a ping frame")
	}
}

// TestFrameRoundTripProperty pushes randomized frames — control and exec,
// zero-length and large payloads, arbitrary request ids — through a
// net.Pipe and checks every field and byte survives.
func TestFrameRoundTripProperty(t *testing.T) {
	a, b := pipePair()
	defer a.Close()
	defer b.Close()
	rng := rand.New(rand.NewSource(7))
	const frames = 200
	type sent struct {
		typ     MsgType
		reqID   uint64
		payload []byte
		exec    *ExecHeader
		result  *ExecResultHeader
	}
	queue := make([]sent, frames)
	for i := range queue {
		s := sent{reqID: rng.Uint64()}
		if n := rng.Intn(4); n > 0 {
			s.payload = make([]byte, rng.Intn(1<<14))
			rng.Read(s.payload)
		}
		switch rng.Intn(3) {
		case 0:
			s.typ = MsgExec
			s.exec = &ExecHeader{
				Out:   rect(-rng.Intn(10), rng.Intn(1<<20), rng.Intn(64), rng.Intn(64)),
				TileC: rng.Intn(512), TileH: rng.Intn(512), TileW: rng.Intn(512),
				DType: rng.Intn(2), Scale: rng.Float32(),
			}
		case 1:
			s.typ = MsgExecResult
			s.result = &ExecResultHeader{
				C: rng.Intn(1 << 10), H: rng.Intn(1 << 10), W: rng.Intn(1 << 10),
				DType: rng.Intn(2), Scale: rng.Float32(),
				ComputeSeconds: rng.Float64(),
			}
		default:
			s.typ = MsgPing
		}
		queue[i] = s
	}
	go func() {
		for _, s := range queue {
			var err error
			switch {
			case s.exec != nil:
				err = a.SendExec(s.reqID, s.exec, s.payload)
			case s.result != nil:
				err = a.SendExecResult(s.reqID, s.result, s.payload)
			default:
				err = a.SendRequest(s.typ, s.reqID, nil, s.payload)
			}
			if err != nil {
				t.Errorf("send: %v", err)
				return
			}
		}
	}()
	for i, s := range queue {
		msg, err := b.Recv()
		if err != nil {
			t.Fatalf("frame %d: %v", i, err)
		}
		if msg.Type != s.typ || msg.ReqID != s.reqID {
			t.Fatalf("frame %d: got (%v, %d), want (%v, %d)", i, msg.Type, msg.ReqID, s.typ, s.reqID)
		}
		if !bytes.Equal(msg.Payload, s.payload) {
			t.Fatalf("frame %d: payload corrupted (%d vs %d bytes)", i, len(msg.Payload), len(s.payload))
		}
		if s.exec != nil {
			var hdr ExecHeader
			if err := msg.DecodeExec(&hdr); err != nil {
				t.Fatalf("frame %d: %v", i, err)
			}
			if hdr != *s.exec {
				t.Fatalf("frame %d: exec header %+v, want %+v", i, hdr, *s.exec)
			}
		}
		if s.result != nil {
			var hdr ExecResultHeader
			if err := msg.DecodeExecResult(&hdr); err != nil {
				t.Fatalf("frame %d: %v", i, err)
			}
			if hdr != *s.result {
				t.Fatalf("frame %d: result header %+v, want %+v", i, hdr, *s.result)
			}
		}
		PutBuffer(msg.Payload)
	}
}

func TestModelSpecRoundTrip(t *testing.T) {
	for _, m := range []*nn.Model{nn.VGG16(), nn.ResNet34(), nn.TinyGraph()} {
		spec := SpecFromModel(m)
		back, err := spec.ToModel()
		if err != nil {
			t.Fatalf("%s: %v", m.Name, err)
		}
		if back.Name != m.Name || back.NumLayers() != m.NumLayers() {
			t.Fatalf("%s: round trip changed the model", m.Name)
		}
		if back.TotalFLOPs() != m.TotalFLOPs() {
			t.Fatalf("%s: FLOPs changed: %d vs %d", m.Name, back.TotalFLOPs(), m.TotalFLOPs())
		}
	}
	bad := ModelSpec{Name: "bad"}
	if _, err := bad.ToModel(); err == nil {
		t.Fatal("invalid spec accepted")
	}
}

func TestModelSpecJSONSurvivesWire(t *testing.T) {
	a, b := pipePair()
	defer a.Close()
	defer b.Close()
	m := nn.TinyGraph()
	go func() {
		_ = a.Send(MsgLoadModel, LoadModelHeader{Model: SpecFromModel(m), Seed: 42}, nil)
	}()
	msg, err := b.Recv()
	if err != nil {
		t.Fatal(err)
	}
	var hdr LoadModelHeader
	if err := msg.DecodeHeader(&hdr); err != nil {
		t.Fatal(err)
	}
	back, err := hdr.Model.ToModel()
	if err != nil {
		t.Fatal(err)
	}
	if hdr.Seed != 42 || back.TotalFLOPs() != m.TotalFLOPs() {
		t.Fatal("load-model header mangled")
	}
}

// TestLoadModelSegment: a load header's segment is required, so every header
// carries both fields and the segment arrives as sent — an empty one too, for
// the worker to refuse.
func TestLoadModelSegment(t *testing.T) {
	a, b := pipePair()
	defer a.Close()
	defer b.Close()
	spec := SpecFromModel(nn.ToyChain("seg", 4, 2, 4, 16))
	for _, seg := range [][2]int{{1, 4}, {0, 0}} {
		go func() {
			_ = a.Send(MsgLoadModel, LoadModelHeader{Model: spec, Seed: 3, From: seg[0], To: seg[1]}, nil)
		}()
		msg, err := b.Recv()
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Contains(msg.Header, []byte(`"from"`)) || !bytes.Contains(msg.Header, []byte(`"to"`)) {
			t.Fatalf("a header leaves out its segment: %s", msg.Header)
		}
		var hdr LoadModelHeader
		if err := msg.DecodeHeader(&hdr); err != nil {
			t.Fatal(err)
		}
		if hdr.From != seg[0] || hdr.To != seg[1] {
			t.Fatalf("segment [%d,%d) arrived as [%d,%d)", seg[0], seg[1], hdr.From, hdr.To)
		}
	}
}

// TestLoadModelQuantScalesBitExact: the scale vector in a load header crosses
// the wire as bit patterns, so every float32 — subnormals, the largest finite
// value, values with no short decimal form, and the non-finite ones the
// receiver has to see to reject — arrives bit for bit; a header without
// scales (a float load) decodes to none.
func TestLoadModelQuantScalesBitExact(t *testing.T) {
	a, b := pipePair()
	defer a.Close()
	defer b.Close()
	bits := []uint32{
		0x00000001, 0x007fffff, 0x00800000, // subnormals, smallest normal
		0x7f7fffff, 0x3dcccccd, 0x3eaaaaab, 0x2edbe6ff, // max finite, 0.1, 1/3, 1e-10
		0x7f800000, 0xff800000, 0x7fc00000, 0x7fa00001, 0x80000000, // +-Inf, NaNs, -0
	}
	rng := rand.New(rand.NewSource(5))
	for i := 0; i < 64; i++ {
		bits = append(bits, rng.Uint32())
	}
	scales := make(Scales, len(bits))
	for i, v := range bits {
		scales[i] = math.Float32frombits(v)
	}
	spec := SpecFromModel(nn.ToyChain("s", 2, 0, 4, 16))
	for _, sent := range []Scales{scales, nil} {
		go func() {
			_ = a.Send(MsgLoadModel, LoadModelHeader{Model: spec, Seed: 7, Scales: sent}, nil)
		}()
		msg, err := b.Recv()
		if err != nil {
			t.Fatal(err)
		}
		if sent == nil && bytes.Contains(msg.Header, []byte("scales")) {
			t.Fatalf("a header without scales mentions them: %s", msg.Header)
		}
		var hdr LoadModelHeader
		if err := msg.DecodeHeader(&hdr); err != nil {
			t.Fatal(err)
		}
		if hdr.Seed != 7 || len(hdr.Scales) != len(sent) {
			t.Fatalf("decoded seed=%d with %d scales, sent %d", hdr.Seed, len(hdr.Scales), len(sent))
		}
		for i, v := range hdr.Scales {
			if got := math.Float32bits(v); got != bits[i] {
				t.Fatalf("scale %d arrived as %#08x, sent %#08x", i, got, bits[i])
			}
		}
	}
}

func TestMsgTypeStrings(t *testing.T) {
	for _, mt := range []MsgType{MsgHello, MsgLoadModel, MsgExec, MsgExecResult, MsgError, MsgPing, MsgPong} {
		if mt.String() == "" || strings.HasPrefix(mt.String(), "type(") {
			t.Fatalf("missing String for %d", mt)
		}
	}
	if MsgType(200).String() != "type(200)" {
		t.Fatal("unknown type String wrong")
	}
}

func TestConcurrentSendsAreFramed(t *testing.T) {
	// Many goroutines share one Conn; every frame must arrive intact, with
	// its request id matched to its payload.
	client, server := pipePair()
	defer client.Close()
	defer server.Close()
	const senders, perSender = 8, 25
	var wg sync.WaitGroup
	for s := 0; s < senders; s++ {
		wg.Add(1)
		go func(s int) {
			defer wg.Done()
			payload := bytes.Repeat([]byte{byte(s)}, 64+s)
			for i := 0; i < perSender; i++ {
				hdr := ExecHeader{TileC: s, TileH: 1, TileW: 16 + s}
				if err := client.SendExec(uint64(s), &hdr, payload); err != nil {
					t.Errorf("send: %v", err)
					return
				}
			}
		}(s)
	}
	received := 0
	for received < senders*perSender {
		msg, err := server.Recv()
		if err != nil {
			t.Fatal(err)
		}
		var hdr ExecHeader
		if err := msg.DecodeExec(&hdr); err != nil {
			t.Fatal(err)
		}
		s := hdr.TileC
		if msg.ReqID != uint64(s) {
			t.Fatalf("sender %d frame has reqID %d", s, msg.ReqID)
		}
		if len(msg.Payload) != 64+s {
			t.Fatalf("sender %d payload length %d", s, len(msg.Payload))
		}
		for _, b := range msg.Payload {
			if b != byte(s) {
				t.Fatalf("sender %d frame corrupted", s)
			}
		}
		received++
	}
	wg.Wait()
}

func TestRecvTruncatedStream(t *testing.T) {
	// A peer dying mid-frame must yield an error, not a hang or garbage.
	a, b := net.Pipe()
	conn := NewConn(b)
	defer conn.Close()
	go func() {
		_, _ = a.Write(prefix(MsgExec, 1, 2, 8))
		_, _ = a.Write([]byte("{}")) // header arrives...
		_ = a.Close()                // ...payload never does
	}()
	if _, err := conn.Recv(); err == nil {
		t.Fatal("truncated frame accepted")
	}
}

// TestRecvAllocatesOnlyWhatArrives: a prefix announcing the longest header
// or payload the caps allow, then EOF, is an error, and Recv allocates far
// less than the length it was only promised.
func TestRecvAllocatesOnlyWhatArrives(t *testing.T) {
	cases := []struct {
		name  string
		pre   []byte
		bound uint64
	}{
		{"payload", prefix(MsgExec, 1, 0, uint64(maxPayloadBytes)), 32 << 20},
		{"header", prefix(MsgExec, 1, maxHeaderBytes, 0), 1 << 20},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			a, b := net.Pipe()
			conn := NewConn(b)
			defer conn.Close()
			go func() {
				_, _ = a.Write(tc.pre)
				_ = a.Close()
			}()
			var before, after runtime.MemStats
			runtime.ReadMemStats(&before)
			_, err := conn.Recv()
			runtime.ReadMemStats(&after)
			if err == nil {
				t.Fatal("a frame that never arrived was accepted")
			}
			if grew := after.TotalAlloc - before.TotalAlloc; grew >= tc.bound {
				t.Fatalf("Recv allocated %d bytes on a bare prefix, want < %d", grew, tc.bound)
			}
		})
	}
}

// FuzzRecv feeds arbitrary bytes to the frame decoder; it must never panic
// or over-allocate, only return messages or errors.
func FuzzRecv(f *testing.F) {
	// Seed with a valid frame and some corruptions.
	valid := func() []byte {
		var buf bytes.Buffer
		a, b := net.Pipe()
		done := make(chan struct{})
		go func() {
			defer close(done)
			data := make([]byte, 512)
			for {
				n, err := a.Read(data)
				buf.Write(data[:n])
				if err != nil {
					return
				}
			}
		}()
		c := NewConn(b)
		_ = c.Send(MsgPing, nil, []byte("xy"))
		_ = c.SendExec(3, &ExecHeader{Out: rect(0, 1, 0, 1), TileC: 1, TileH: 1, TileW: 1, DType: DTypeInt8}, []byte{1})
		oc, oh, ow := overflowExtent()
		_ = c.SendExec(4, &ExecHeader{TileC: oc, TileH: oh, TileW: ow, DType: DTypeInt8, Scale: 1}, nil)
		_ = c.SendRequest(MsgLoadModel, 5, LoadModelHeader{
			Model: SpecFromModel(nn.ToyChain("f", 1, 0, 2, 8)), Seed: 1, From: 0, To: 1,
			Scales: Scales{0.5, float32(math.NaN()), float32(math.Inf(1)), -1},
		}, nil)
		_ = b.Close()
		<-done
		return buf.Bytes()
	}()
	f.Add(valid)
	f.Add([]byte("PICO"))
	f.Add([]byte{})
	f.Add(bytes.Repeat([]byte{0xFF}, 64))
	f.Fuzz(func(t *testing.T, data []byte) {
		server, client := net.Pipe()
		conn := NewConn(server)
		defer conn.Close()
		go func() {
			_, _ = client.Write(data)
			_ = client.Close()
		}()
		for {
			msg, err := conn.Recv()
			if err != nil {
				return
			}
			// Exercise the binary header decoders on arbitrary bytes too.
			switch msg.Type {
			case MsgExec:
				// ...and the tile decode on whatever extent the header
				// claims: reject or decode, never trust the product.
				var h ExecHeader
				if msg.DecodeExec(&h) == nil {
					if m, err := DecodeMap(h.DType, h.TileC, h.TileH, h.TileW, h.Scale, msg.Payload); err == nil {
						if n := float64(m.C) * float64(m.H) * float64(m.W); n != float64(len(msg.Payload)) && 4*n != float64(len(msg.Payload)) {
							t.Fatalf("decoded %dx%dx%d from a %d-byte payload", m.C, m.H, m.W, len(msg.Payload))
						}
						m.Recycle()
					}
				}
			case MsgExecResult:
				_ = msg.DecodeExecResult(&ExecResultHeader{})
			case MsgLoadModel:
				// A load header is JSON from outside: decode or reject.
				var h LoadModelHeader
				if msg.DecodeHeader(&h) == nil {
					_, _ = h.Model.ToModel()
				}
			}
			PutBuffer(msg.Payload)
		}
	})
}
