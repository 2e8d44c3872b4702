package wire

import (
	"encoding/binary"
	"encoding/json"
	"fmt"
	"math"

	"pico/internal/nn"
	"pico/internal/partition"
	"pico/internal/tensor"
)

// HelloHeader introduces a peer.
type HelloHeader struct {
	NodeID  string `json:"node_id"`
	Version int    `json:"version"`
}

// ProtocolVersion guards against mixed deployments. Version 2 added the
// request id to the frame prefix (request multiplexing) and binary headers
// on the exec hot path. Version 3 added the payload dtype and quantization
// scale to both exec headers so tiles can travel as int8. Version 4 added the
// per-kind kernel seconds to the exec result and dropped the stats messages.
// Version 5 made the load's segment required and its scales the only int8
// switch (LoadModelHeader). Version 6 made a load bind its connection to its
// model and segment, so exec headers carry only the tile (ExecHeader), and
// dropped the shutdown frame: closing the connection ends it.
const ProtocolVersion = 6

// Payload element types for exec frames; float32 is the zero value.
const (
	DTypeFloat32 = 0
	DTypeInt8    = 1
)

// LoadModelHeader ships a model and weight seed. The payload is empty; the
// model travels inside the header as JSON (weights are derived from the
// seed, so no parameter blob is needed — see the tensor package). From and
// To name the segment [From, To) the connection will execute, and are
// required: the worker builds that segment's weights, in the load's
// precision, before it answers, so the first tile generates none, and it
// refuses an empty or out-of-range segment. A load the worker accepts binds
// its connection: every later exec on it runs this model and segment, until
// the next accepted load rebinds it. Scales, when non-empty, makes the
// load int8: it is the session's boundary-scale vector (tensor.QuantScales:
// NumLayers+1 entries), calibrated once by the coordinator from (model,
// seed), which the worker validates on receipt and presets instead of
// calibrating.
type LoadModelHeader struct {
	Model  ModelSpec `json:"model"`
	Seed   int64     `json:"seed"`
	Scales Scales    `json:"scales,omitempty"`
	From   int       `json:"from"`
	To     int       `json:"to"`
}

// Scales is a quantization-scale vector that crosses the wire as float32 bit
// patterns (a JSON array of uint32), so every value — including ones with no
// short decimal form, and the non-finite ones a receiver must get to see in
// order to reject — arrives bit for bit.
type Scales []float32

func (s Scales) MarshalJSON() ([]byte, error) {
	bits := make([]uint32, len(s))
	for i, v := range s {
		bits[i] = math.Float32bits(v)
	}
	return json.Marshal(bits)
}

func (s *Scales) UnmarshalJSON(b []byte) error {
	var bits []uint32
	if err := json.Unmarshal(b, &bits); err != nil {
		return err
	}
	*s = make(Scales, len(bits))
	for i, v := range bits {
		(*s)[i] = math.Float32frombits(v)
	}
	return nil
}

// ModelSpec is the wire form of an nn.Model.
type ModelSpec struct {
	Name   string     `json:"name"`
	Input  nn.Shape   `json:"input"`
	Layers []nn.Layer `json:"layers"`
}

// SpecFromModel converts a validated model to its wire form.
func SpecFromModel(m *nn.Model) ModelSpec {
	return ModelSpec{Name: m.Name, Input: m.Input, Layers: m.Layers}
}

// ToModel reconstructs and validates the model.
func (s ModelSpec) ToModel() (*nn.Model, error) {
	m := &nn.Model{Name: s.Name, Input: s.Input, Layers: s.Layers}
	if err := m.Validate(); err != nil {
		return nil, fmt.Errorf("wire: received invalid model: %w", err)
	}
	return m, nil
}

// ExecHeader asks a worker for output region Out of the segment its
// connection's load bound (LoadModelHeader): the load names the model, seed
// and segment once, so an exec carries only its tile. The payload is the
// input tile — the region of the segment's input map that Out needs
// (partition.Calc.TileRects), extent TileC x TileH x TileW — of element type
// DType (DTypeFloat32 or DTypeInt8, whose quantization scale is Scale).
//
// On the wire the header is a fixed 36-byte binary layout (see appendBinary),
// not JSON: exec frames are the per-tile hot path.
type ExecHeader struct {
	Out                 partition.Rect
	TileC, TileH, TileW int
	DType               int
	Scale               float32
}

// execHeaderLen is the binary exec header size: eight int32 fields (the
// output rect, the tile extent, the dtype) and the float32 scale.
const execHeaderLen = 8*4 + 4

// appendBinary encodes h in the fixed little-endian layout:
//
//	Out.Rows.Lo, Out.Rows.Hi, Out.Cols.Lo, Out.Cols.Hi,
//	TileC, TileH, TileW, DType (int32 each) | Scale float32
func (h *ExecHeader) appendBinary(buf []byte) []byte {
	var b [execHeaderLen]byte
	for i, v := range [...]int{
		h.Out.Rows.Lo, h.Out.Rows.Hi, h.Out.Cols.Lo, h.Out.Cols.Hi,
		h.TileC, h.TileH, h.TileW, h.DType,
	} {
		binary.LittleEndian.PutUint32(b[4*i:], uint32(int32(v)))
	}
	binary.LittleEndian.PutUint32(b[32:], math.Float32bits(h.Scale))
	return append(buf, b[:]...)
}

func (h *ExecHeader) decodeBinary(b []byte) error {
	if len(b) != execHeaderLen {
		return fmt.Errorf("wire: exec header %d bytes, want %d", len(b), execHeaderLen)
	}
	var v [8]int
	for i := range v {
		v[i] = int(int32(binary.LittleEndian.Uint32(b[4*i:])))
	}
	h.Out = partition.Rect{Rows: partition.Range{Lo: v[0], Hi: v[1]}, Cols: partition.Range{Lo: v[2], Hi: v[3]}}
	h.TileC, h.TileH, h.TileW, h.DType = v[4], v[5], v[6], v[7]
	h.Scale = math.Float32frombits(binary.LittleEndian.Uint32(b[32:]))
	return nil
}

// DecodeExec parses a binary exec header from an MsgExec frame.
func (m *Message) DecodeExec(h *ExecHeader) error {
	if m.Type != MsgExec {
		return fmt.Errorf("wire: decode exec header of %v frame", m.Type)
	}
	return h.decodeBinary(m.Header)
}

// ExecResultHeader returns a computed tile of extent C x H x W. The
// coordinator matches it to its request by the frame's request id and places
// it by the rect it asked for. Binary on the wire, like ExecHeader.
type ExecResultHeader struct {
	C int
	H int
	W int
	// DType is the payload element type; Scale is the tile's quantization
	// scale when DType is DTypeInt8. Result headers carry the scale forward
	// so the coordinator never re-derives calibration mid-pipeline.
	DType int
	Scale float32
	// ComputeSeconds is the worker-side compute time of the tile, including
	// any emulated-speed top-up, reported for utilization accounting.
	ComputeSeconds float64
	// KernelSeconds is the tile's kernel wall-clock time per layer kind, in
	// tensor's kind order (tensor.KindNames); the emulated top-up is not in
	// it.
	KernelSeconds [tensor.NumKinds]float64
}

// execResultHeaderLen is the binary exec-result header size: four int32
// fields (extent + dtype), the float32 scale, ComputeSeconds float64 and one
// float64 per kernel kind.
const execResultHeaderLen = 4*4 + 4 + 8 + tensor.NumKinds*8

// appendBinary encodes h as:
//
//	C, H, W, DType (int32 each) | Scale float32 |
//	ComputeSeconds float64 | KernelSeconds (float64 each)
func (h *ExecResultHeader) appendBinary(buf []byte) []byte {
	var b [execResultHeaderLen]byte
	for i, v := range [...]int{h.C, h.H, h.W, h.DType} {
		binary.LittleEndian.PutUint32(b[4*i:], uint32(int32(v)))
	}
	binary.LittleEndian.PutUint32(b[16:], math.Float32bits(h.Scale))
	binary.LittleEndian.PutUint64(b[20:], math.Float64bits(h.ComputeSeconds))
	for k, sec := range h.KernelSeconds {
		binary.LittleEndian.PutUint64(b[28+8*k:], math.Float64bits(sec))
	}
	return append(buf, b[:]...)
}

func (h *ExecResultHeader) decodeBinary(b []byte) error {
	if len(b) != execResultHeaderLen {
		return fmt.Errorf("wire: exec result header %d bytes, want %d", len(b), execResultHeaderLen)
	}
	var v [4]int
	for i := range v {
		v[i] = int(int32(binary.LittleEndian.Uint32(b[4*i:])))
	}
	h.C, h.H, h.W, h.DType = v[0], v[1], v[2], v[3]
	h.Scale = math.Float32frombits(binary.LittleEndian.Uint32(b[16:]))
	h.ComputeSeconds = math.Float64frombits(binary.LittleEndian.Uint64(b[20:]))
	for k := range h.KernelSeconds {
		h.KernelSeconds[k] = math.Float64frombits(binary.LittleEndian.Uint64(b[28+8*k:]))
	}
	return nil
}

// DecodeExecResult parses a binary exec-result header from an MsgExecResult
// frame.
func (m *Message) DecodeExecResult(h *ExecResultHeader) error {
	if m.Type != MsgExecResult {
		return fmt.Errorf("wire: decode exec-result header of %v frame", m.Type)
	}
	return h.decodeBinary(m.Header)
}

// ErrorHeader reports a request failure.
type ErrorHeader struct {
	Message string `json:"message"`
}
