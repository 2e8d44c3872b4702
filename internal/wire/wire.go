// Package wire is the binary framing protocol of the distributed runtime —
// the Go counterpart of the paper's C++ TCP/IP socket framework (§IV-D).
//
// Protocol v2 frames are:
//
//	magic "PICO" | type (1 byte) | request id (8 bytes LE) |
//	header length (4 bytes LE) | payload length (8 bytes LE) |
//	header | raw payload
//
// The request id lets one connection carry many requests concurrently: a
// response frame echoes the id of the request it answers, so a single reader
// goroutine can demultiplex responses to pending calls in any order.
//
// Control frames (hello, load-model, ping, error, …) carry a small JSON
// header. The hot-path frames — MsgExec and MsgExecResult — carry fixed-
// layout little-endian binary headers instead (see headers.go), and
// feature-map tiles travel as raw little-endian float32 payloads, so the
// per-tile path never touches encoding/json.
package wire

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"math/bits"
	"net"
	"sync"
	"time"
	"unsafe"

	"pico/internal/tensor"
)

// MsgType identifies a frame's meaning.
type MsgType byte

// Protocol message types.
const (
	// MsgHello introduces a peer after connecting.
	MsgHello MsgType = iota + 1
	// MsgLoadModel ships a model description and weight seed to a worker.
	MsgLoadModel
	// MsgExec asks a worker to execute its connection's loaded segment on a
	// tile.
	MsgExec
	// MsgExecResult returns a computed output tile.
	MsgExecResult
	// MsgError reports a failure for a request.
	MsgError
	// MsgPing and MsgPong are liveness probes.
	MsgPing
	MsgPong
)

func (t MsgType) String() string {
	switch t {
	case MsgHello:
		return "hello"
	case MsgLoadModel:
		return "load-model"
	case MsgExec:
		return "exec"
	case MsgExecResult:
		return "exec-result"
	case MsgError:
		return "error"
	case MsgPing:
		return "ping"
	case MsgPong:
		return "pong"
	default:
		return fmt.Sprintf("type(%d)", byte(t))
	}
}

var magic = [4]byte{'P', 'I', 'C', 'O'}

// prefixLen is the fixed frame prefix: magic, type, request id, header
// length, payload length.
const prefixLen = 4 + 1 + 8 + 4 + 8

// Frame size guards: a corrupt length prefix must not allocate the moon.
// maxPayloadBytes is explicitly int64-typed — as an untyped constant, 1<<31
// overflows int on 32-bit platforms the moment it meets an int-typed
// operand, so every comparison against it must happen in 64-bit space.
const (
	maxHeaderBytes        = 8 << 20 // 8 MiB of header is already absurd
	maxPayloadBytes int64 = 1 << 31 // 2 GiB tile cap

	// maxIntPayload is the largest payload this platform can hold in a
	// []byte: lengths above it would truncate in the int conversion that
	// sizes the receive buffer (the classic 32-bit plen bug).
	maxIntPayload = uint64(^uint(0) >> 1)

	// A length prefix alone makes Recv allocate at most these: a header or
	// payload up to them is allocated whole (a payload from the scratch pool)
	// before it is read, a longer one grows its buffer as its bytes arrive.
	// 16 MiB is above every frame a served model sends; MobileNetV1's
	// largest is about 3.2 MB.
	eagerHeaderBytes  = 64 << 10
	eagerPayloadBytes = 16 << 20
)

// Message is one decoded frame.
type Message struct {
	Type MsgType
	// ReqID is the multiplexing request id (0 for unsolicited frames such
	// as the hello). Responses echo the id of the request they answer.
	ReqID   uint64
	Header  []byte // raw header bytes: JSON for control frames, binary for exec frames
	Payload []byte
}

// Conn frames messages over a reliable byte stream. Sends are serialized by
// an internal mutex; Recv must be called from a single reader goroutine.
type Conn struct {
	c  net.Conn
	br *bufio.Reader

	mu      sync.Mutex // guards bw, scratch and writeTimeout
	bw      *bufio.Writer
	scratch []byte // reusable binary-header encode buffer

	// writeTimeout, when positive, bounds each framed send: the underlying
	// write deadline is re-armed per frame, so a peer that stops reading
	// (TCP backpressure from a wedged worker) fails the send instead of
	// blocking the sender forever.
	writeTimeout time.Duration
}

// NewConn wraps a net.Conn.
func NewConn(c net.Conn) *Conn {
	return &Conn{
		c:  c,
		br: bufio.NewReaderSize(c, 1<<16),
		bw: bufio.NewWriterSize(c, 1<<16),
	}
}

// Close closes the underlying connection.
func (c *Conn) Close() error { return c.c.Close() }

// RemoteAddr returns the peer address.
func (c *Conn) RemoteAddr() string { return c.c.RemoteAddr().String() }

// SetWriteTimeout bounds every subsequent framed send: each frame re-arms the
// underlying write deadline, so a peer that stops draining the stream fails
// the send with a timeout error instead of wedging the sender. Zero disables.
func (c *Conn) SetWriteTimeout(d time.Duration) {
	c.mu.Lock()
	c.writeTimeout = d
	c.mu.Unlock()
}

// SetReadDeadline bounds the next Recv, passing through to the underlying
// connection. The zero time clears it.
func (c *Conn) SetReadDeadline(t time.Time) error { return c.c.SetReadDeadline(t) }

// writeFrame frames and flushes one message. Callers hold c.mu.
func (c *Conn) writeFrame(t MsgType, reqID uint64, hdr, payload []byte) error {
	if c.writeTimeout > 0 {
		if err := c.c.SetWriteDeadline(time.Now().Add(c.writeTimeout)); err != nil {
			return fmt.Errorf("wire: arm write deadline: %w", err)
		}
	}
	if len(hdr) > maxHeaderBytes {
		return fmt.Errorf("wire: header of %d bytes exceeds cap", len(hdr))
	}
	if int64(len(payload)) > maxPayloadBytes {
		return fmt.Errorf("wire: payload of %d bytes exceeds cap", len(payload))
	}
	var pre [prefixLen]byte
	copy(pre[:4], magic[:])
	pre[4] = byte(t)
	binary.LittleEndian.PutUint64(pre[5:13], reqID)
	binary.LittleEndian.PutUint32(pre[13:17], uint32(len(hdr)))
	binary.LittleEndian.PutUint64(pre[17:25], uint64(len(payload)))
	if _, err := c.bw.Write(pre[:]); err != nil {
		return fmt.Errorf("wire: write frame prefix: %w", err)
	}
	if _, err := c.bw.Write(hdr); err != nil {
		return fmt.Errorf("wire: write header: %w", err)
	}
	if _, err := c.bw.Write(payload); err != nil {
		return fmt.Errorf("wire: write payload: %w", err)
	}
	if err := c.bw.Flush(); err != nil {
		return fmt.Errorf("wire: flush: %w", err)
	}
	return nil
}

// Send frames and flushes one control message with request id 0. header is
// marshalled to JSON; a nil header sends an empty object.
func (c *Conn) Send(t MsgType, header any, payload []byte) error {
	return c.SendRequest(t, 0, header, payload)
}

// SendRequest frames and flushes one control message carrying the given
// request id. header is marshalled to JSON; a nil header sends an empty
// object.
func (c *Conn) SendRequest(t MsgType, reqID uint64, header any, payload []byte) error {
	var hdr []byte
	var err error
	if header == nil {
		hdr = []byte("{}")
	} else if hdr, err = json.Marshal(header); err != nil {
		return fmt.Errorf("wire: marshal %v header: %w", t, err)
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.writeFrame(t, reqID, hdr, payload)
}

// SendExec frames and flushes one exec request with a binary header. The
// payload is fully written before SendExec returns, so callers may reuse or
// recycle it immediately afterwards.
func (c *Conn) SendExec(reqID uint64, hdr *ExecHeader, payload []byte) error {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.scratch = hdr.appendBinary(c.scratch[:0])
	return c.writeFrame(MsgExec, reqID, c.scratch, payload)
}

// SendExecResult frames and flushes one exec response with a binary header.
// Like SendExec, the payload is consumed synchronously.
func (c *Conn) SendExecResult(reqID uint64, hdr *ExecResultHeader, payload []byte) error {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.scratch = hdr.appendBinary(c.scratch[:0])
	return c.writeFrame(MsgExecResult, reqID, c.scratch, payload)
}

// Recv reads one message, blocking until a full frame arrives.
func (c *Conn) Recv() (*Message, error) {
	var pre [prefixLen]byte
	if _, err := io.ReadFull(c.br, pre[:]); err != nil {
		return nil, err
	}
	if [4]byte(pre[:4]) != magic {
		return nil, fmt.Errorf("wire: bad magic %q", pre[:4])
	}
	t := MsgType(pre[4])
	reqID := binary.LittleEndian.Uint64(pre[5:13])
	hlen := binary.LittleEndian.Uint32(pre[13:17])
	plen := binary.LittleEndian.Uint64(pre[17:25])
	if hlen > maxHeaderBytes {
		return nil, fmt.Errorf("wire: header length %d exceeds cap", hlen)
	}
	if plen > uint64(maxPayloadBytes) {
		return nil, fmt.Errorf("wire: payload length %d exceeds cap", plen)
	}
	if plen > maxIntPayload {
		return nil, fmt.Errorf("wire: payload length %d exceeds platform int range", plen)
	}
	hdr, err := readClaimed(c.br, int(hlen), eagerHeaderBytes, func(n int) []byte { return make([]byte, n) })
	if err != nil {
		return nil, fmt.Errorf("wire: read header: %w", err)
	}
	// Payloads come from the scratch pool; receivers that fully consume a
	// message may PutBuffer(msg.Payload) to recycle it.
	payload, err := readClaimed(c.br, int(plen), eagerPayloadBytes, GetBuffer)
	if err != nil {
		PutBuffer(payload)
		return nil, fmt.Errorf("wire: read payload: %w", err)
	}
	return &Message{Type: t, ReqID: reqID, Header: hdr, Payload: payload}, nil
}

// readClaimed reads the n bytes a frame prefix announced. Up to eager bytes
// are allocated whole by alloc first; a longer claim grows its buffer as the
// bytes arrive, so a peer that announces a length and hangs up costs only
// what it sent.
func readClaimed(r io.Reader, n, eager int, alloc func(int) []byte) ([]byte, error) {
	if n <= eager {
		b := alloc(n)
		_, err := io.ReadFull(r, b)
		return b, err
	}
	var buf bytes.Buffer
	_, err := io.CopyN(&buf, r, int64(n))
	if err == io.EOF {
		err = io.ErrUnexpectedEOF
	}
	return buf.Bytes(), err
}

// DecodeHeader unmarshals a control message's JSON header into v. Exec
// frames carry binary headers; use DecodeExec / DecodeExecResult for those.
func (m *Message) DecodeHeader(v any) error {
	if err := json.Unmarshal(m.Header, v); err != nil {
		return fmt.Errorf("wire: decode %v header: %w", m.Type, err)
	}
	return nil
}

// Scratch-buffer pool for encode/decode payloads. Frames are encoded, sent
// and dropped (or received, decoded and dropped), so the hot path cycles a
// small working set of buffers instead of allocating per message. Buffers
// are bucketed by power-of-two capacity, like the tensor arena.

const (
	minPooledBufBits = 12 // 4 KiB — smaller payloads allocate directly
	maxPooledBufBits = 31 // matches maxPayloadBytes
)

var bufPool [maxPooledBufBits + 1]sync.Pool

// GetBuffer returns a byte slice of length n, drawn from the scratch pool
// when n is in the pooled range. Contents are unspecified.
func GetBuffer(n int) []byte {
	if n <= 0 {
		return nil
	}
	cl := bits.Len(uint(n - 1))
	// The final guard keeps 1<<cl inside this platform's int range: on
	// 32-bit hosts the top size class would overflow to a negative cap.
	if cl < minPooledBufBits || cl > maxPooledBufBits || cl >= bits.UintSize-1 {
		return make([]byte, n)
	}
	if v := bufPool[cl].Get(); v != nil {
		return (*(v.(*[]byte)))[:n]
	}
	return make([]byte, n, 1<<cl)
}

// PutBuffer returns a buffer obtained from GetBuffer (directly, or as a
// Message payload) to the scratch pool. The caller must not touch b after.
func PutBuffer(b []byte) {
	n := cap(b)
	if n == 0 || n&(n-1) != 0 {
		return // not a pooled class; let the GC have it
	}
	cl := bits.Len(uint(n)) - 1
	if cl < minPooledBufBits || cl > maxPooledBufBits {
		return
	}
	b = b[:n]
	bufPool[cl].Put(&b)
}

// hostLittleEndian reports whether this machine stores float32 in the wire's
// little-endian byte order, enabling the zero-copy codec paths.
var hostLittleEndian = func() bool {
	var probe uint32 = 0x01020304
	return *(*byte)(unsafe.Pointer(&probe)) == 0x04
}()

// The tile codec is written once over the element type. A tile travels as
// its raw elements — float32 little-endian, int8 as the two's-complement
// byte — with extent, dtype and scale in the exec headers, so wherever the
// host's memory layout is already the wire format (float32 on little-endian
// hosts, int8 everywhere) encoding is a reinterpretation and decoding one
// bulk copy. The typed Encode*/Decode* functions are adapters over it.

// rawBytes reinterprets an element slice as its bytes without copying.
func rawBytes[E float32 | int8](d []E) []byte {
	if len(d) == 0 {
		return nil
	}
	return unsafe.Slice((*byte)(unsafe.Pointer(&d[0])), len(d)*int(unsafe.Sizeof(d[0])))
}

// MapBytes returns m's data as wire bytes. Where the host layout is the wire
// layout the slice aliases m's data — zero copy; the map must stay live and
// unmodified until the bytes have been consumed (e.g. until Send returns) —
// and pooled is false. Float32 maps on big-endian hosts are encoded into a
// pooled buffer instead and pooled is true; return it with PutBuffer when
// done.
func MapBytes(m tensor.FMap) (b []byte, pooled bool) {
	switch {
	case m.DType == tensor.Int8:
		return rawBytes(m.QTensor().Data), false
	case hostLittleEndian:
		return rawBytes(m.Tensor().Data), false
	default:
		return EncodeTensorPortable(m.Tensor()), true
	}
}

// checkExtent validates an untrusted tile header against its payload before
// anything is allocated: positive dimensions whose element count neither
// overflows nor exceeds the frame payload cap, and a payload of exactly that
// many elements.
func checkExtent(c, h, w, elemSize int, payload []byte) error {
	if c <= 0 || h <= 0 || w <= 0 {
		return fmt.Errorf("wire: invalid tensor extent %dx%dx%d", c, h, w)
	}
	// Each factor is checked against the cap before it multiplies in, so
	// the running product stays far below 2^63.
	n := int64(1)
	for _, d := range [...]int{c, h, w, elemSize} {
		if int64(d) > maxPayloadBytes/n {
			return fmt.Errorf("wire: tensor extent %dx%dx%d exceeds the %d-byte payload cap", c, h, w, maxPayloadBytes)
		}
		n *= int64(d)
	}
	if int64(len(payload)) != n {
		return fmt.Errorf("wire: payload %d bytes, want %d for %dx%dx%d", len(payload), n, c, h, w)
	}
	return nil
}

// DecodeMap reconstructs a tile of the given wire dtype, extent and (for
// int8) scale from a payload. The map is arena-backed; callers done with it
// may Recycle it.
func DecodeMap(dtype, c, h, w int, scale float32, payload []byte) (tensor.FMap, error) {
	switch dtype {
	case DTypeInt8:
		if err := checkExtent(c, h, w, 1, payload); err != nil {
			return tensor.FMap{}, err
		}
		q := tensor.AllocQ(c, h, w, scale)
		copy(rawBytes(q.Data), payload)
		return tensor.MapOfQ(q), nil
	case DTypeFloat32:
		if err := checkExtent(c, h, w, 4, payload); err != nil {
			return tensor.FMap{}, err
		}
		t := tensor.Alloc(c, h, w)
		if hostLittleEndian {
			copy(rawBytes(t.Data), payload)
		} else {
			decodeTensorInto(t.Data, payload)
		}
		return tensor.MapOf(t), nil
	default:
		return tensor.FMap{}, fmt.Errorf("wire: unknown tile dtype %d", dtype)
	}
}

// EncodeTensor serializes tensor data as little-endian float32 into a
// pooled buffer. Callers done with the buffer (after Send returns) should
// hand it back via PutBuffer to keep the hot path allocation-free.
func EncodeTensor(t tensor.Tensor) []byte { return encodeMap(tensor.MapOf(t)) }

// EncodeQTensor serializes an int8 tensor's data into a pooled buffer — one
// byte per element, a quarter of the float32 payload for the same extent.
// The scale travels in the exec headers, not the payload.
func EncodeQTensor(t tensor.QTensor) []byte { return encodeMap(tensor.MapOfQ(t)) }

// encodeMap copies MapBytes into a pooled buffer the caller owns.
func encodeMap(m tensor.FMap) []byte {
	b, pooled := MapBytes(m)
	if pooled {
		return b
	}
	buf := GetBuffer(len(b))
	copy(buf, b)
	return buf
}

// DecodeTensor reconstructs a float32 tensor of the given extent from a
// payload; see DecodeMap.
func DecodeTensor(c, h, w int, payload []byte) (tensor.Tensor, error) {
	m, err := DecodeMap(DTypeFloat32, c, h, w, 0, payload)
	return m.Tensor(), err
}

// DecodeQTensor reconstructs an int8 tensor of the given extent and scale
// from a payload; see DecodeMap.
func DecodeQTensor(c, h, w int, scale float32, payload []byte) (tensor.QTensor, error) {
	m, err := DecodeMap(DTypeInt8, c, h, w, scale, payload)
	return m.QTensor(), err
}

// EncodeTensorPortable is the endianness-independent per-element reference
// encoder. The fast paths above are property-tested for bit identity against
// it; it also serves as the codec baseline in benchmarks.
func EncodeTensorPortable(t tensor.Tensor) []byte {
	buf := GetBuffer(4 * len(t.Data))
	for i, v := range t.Data {
		binary.LittleEndian.PutUint32(buf[4*i:], math.Float32bits(v))
	}
	return buf
}

// DecodeTensorPortable is the per-element reference decoder matching
// EncodeTensorPortable.
func DecodeTensorPortable(c, h, w int, payload []byte) (tensor.Tensor, error) {
	if err := checkExtent(c, h, w, 4, payload); err != nil {
		return tensor.Tensor{}, err
	}
	t := tensor.Alloc(c, h, w)
	decodeTensorInto(t.Data, payload)
	return t, nil
}

func decodeTensorInto(dst []float32, payload []byte) {
	for i := range dst {
		dst[i] = math.Float32frombits(binary.LittleEndian.Uint32(payload[4*i:]))
	}
}

// EncodeQTensorPortable is the per-element reference encoder the aliasing
// fast path is property-tested against.
func EncodeQTensorPortable(t tensor.QTensor) []byte {
	buf := GetBuffer(len(t.Data))
	for i, v := range t.Data {
		buf[i] = byte(v)
	}
	return buf
}

// DecodeQTensorPortable is the per-element reference decoder matching
// EncodeQTensorPortable.
func DecodeQTensorPortable(c, h, w int, scale float32, payload []byte) (tensor.QTensor, error) {
	if err := checkExtent(c, h, w, 1, payload); err != nil {
		return tensor.QTensor{}, err
	}
	t := tensor.AllocQ(c, h, w, scale)
	for i := range t.Data {
		t.Data[i] = int8(payload[i])
	}
	return t, nil
}
