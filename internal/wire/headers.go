package wire

import (
	"encoding/binary"
	"encoding/json"
	"fmt"
	"math"

	"pico/internal/nn"
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
const ProtocolVersion = 4

// Payload element types for exec frames. Float32 is the zero value so a
// v2-era header (no dtype field) decodes as the float path.
const (
	DTypeFloat32 = 0
	DTypeInt8    = 1
)

// LoadModelHeader ships a model and weight seed. The payload is empty; the
// model travels inside the header as JSON (weights are derived from the
// seed, so no parameter blob is needed — see the tensor package). Quant
// asks the worker to serve the int8 path for this model too. Scales is the
// session's boundary-scale vector (tensor.QuantScales: NumLayers+1 entries),
// calibrated once by the coordinator from (model, seed); the worker validates
// it on receipt and presets it instead of calibrating. A quant load without
// Scales — an older coordinator — makes the worker derive the same vector
// itself at load.
type LoadModelHeader struct {
	Model  ModelSpec `json:"model"`
	Seed   int64     `json:"seed"`
	Quant  bool      `json:"quant,omitempty"`
	Scales Scales    `json:"scales,omitempty"`
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

// ExecHeader asks a worker for output rows [OutLo, OutHi) of segment
// [From, To). The payload is the input tile: rows [InLo, InLo+TileH) of the
// feature map at boundary From, extent TileC x TileH x TileW. The model is
// identified by ModelName and Seed, resolved against the worker's loaded
// executors.
//
// Grid mode (DeepThings-style rectangular tiles): when OutColHi > 0 the
// request is for the output rectangle [OutLo,OutHi) x [OutColLo,OutColHi)
// and the tile's first column is global column InColLo.
//
// On the wire the header is binary (see appendBinary), not JSON: exec
// frames are the per-tile hot path.
type ExecHeader struct {
	TaskID int64
	From   int
	To     int
	OutLo  int
	OutHi  int
	InLo   int
	TileC  int
	TileH  int
	TileW  int

	// Grid-mode extensions (zero values select row-strip mode).
	OutColLo int
	OutColHi int
	InColLo  int

	// DType selects the payload element type (DTypeFloat32 or DTypeInt8);
	// Scale is the tile's quantization scale when DType is DTypeInt8.
	DType int
	Scale float32

	// Model reference.
	ModelName string
	Seed      int64
}

// execHeaderFixed is the binary exec header's fixed part: TaskID and Seed
// as int64, then 12 int32 fields (11 geometry + dtype) and the float32
// quantization scale. The model name occupies the remaining header bytes.
const execHeaderFixed = 8 + 8 + 12*4 + 4

// appendBinary encodes h in the fixed little-endian layout:
//
//	TaskID int64 | Seed int64 |
//	From, To, OutLo, OutHi, InLo, TileC, TileH, TileW,
//	OutColLo, OutColHi, InColLo, DType (int32 each) |
//	Scale float32 | ModelName (remaining header bytes)
func (h *ExecHeader) appendBinary(buf []byte) []byte {
	var fixed [execHeaderFixed]byte
	binary.LittleEndian.PutUint64(fixed[0:], uint64(h.TaskID))
	binary.LittleEndian.PutUint64(fixed[8:], uint64(h.Seed))
	for i, v := range [...]int{
		h.From, h.To, h.OutLo, h.OutHi, h.InLo,
		h.TileC, h.TileH, h.TileW,
		h.OutColLo, h.OutColHi, h.InColLo, h.DType,
	} {
		binary.LittleEndian.PutUint32(fixed[16+4*i:], uint32(int32(v)))
	}
	binary.LittleEndian.PutUint32(fixed[64:], math.Float32bits(h.Scale))
	buf = append(buf, fixed[:]...)
	return append(buf, h.ModelName...)
}

func (h *ExecHeader) decodeBinary(b []byte) error {
	if len(b) < execHeaderFixed {
		return fmt.Errorf("wire: exec header %d bytes, want at least %d", len(b), execHeaderFixed)
	}
	h.TaskID = int64(binary.LittleEndian.Uint64(b[0:]))
	h.Seed = int64(binary.LittleEndian.Uint64(b[8:]))
	geo := [12]int{}
	for i := range geo {
		geo[i] = int(int32(binary.LittleEndian.Uint32(b[16+4*i:])))
	}
	h.From, h.To, h.OutLo, h.OutHi, h.InLo = geo[0], geo[1], geo[2], geo[3], geo[4]
	h.TileC, h.TileH, h.TileW = geo[5], geo[6], geo[7]
	h.OutColLo, h.OutColHi, h.InColLo, h.DType = geo[8], geo[9], geo[10], geo[11]
	h.Scale = math.Float32frombits(binary.LittleEndian.Uint32(b[64:]))
	h.ModelName = string(b[execHeaderFixed:])
	return nil
}

// DecodeExec parses a binary exec header from an MsgExec frame.
func (m *Message) DecodeExec(h *ExecHeader) error {
	if m.Type != MsgExec {
		return fmt.Errorf("wire: decode exec header of %v frame", m.Type)
	}
	return h.decodeBinary(m.Header)
}

// ExecResultHeader returns a computed tile of extent C x H x W whose first
// row is global row OutLo of the segment output. Binary on the wire, like
// ExecHeader.
type ExecResultHeader struct {
	TaskID int64
	OutLo  int
	C      int
	H      int
	W      int
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

// execResultHeaderLen is the binary exec-result header size: TaskID int64,
// five int32 fields (geometry + dtype), the float32 scale, ComputeSeconds
// float64 and one float64 per kernel kind.
const execResultHeaderLen = 8 + 5*4 + 4 + 8 + tensor.NumKinds*8

// appendBinary encodes h as:
//
//	TaskID int64 | OutLo, C, H, W, DType (int32 each) | Scale float32 |
//	ComputeSeconds float64 | KernelSeconds (float64 each)
func (h *ExecResultHeader) appendBinary(buf []byte) []byte {
	var fixed [execResultHeaderLen]byte
	binary.LittleEndian.PutUint64(fixed[0:], uint64(h.TaskID))
	binary.LittleEndian.PutUint32(fixed[8:], uint32(int32(h.OutLo)))
	binary.LittleEndian.PutUint32(fixed[12:], uint32(int32(h.C)))
	binary.LittleEndian.PutUint32(fixed[16:], uint32(int32(h.H)))
	binary.LittleEndian.PutUint32(fixed[20:], uint32(int32(h.W)))
	binary.LittleEndian.PutUint32(fixed[24:], uint32(int32(h.DType)))
	binary.LittleEndian.PutUint32(fixed[28:], math.Float32bits(h.Scale))
	binary.LittleEndian.PutUint64(fixed[32:], math.Float64bits(h.ComputeSeconds))
	for k, sec := range h.KernelSeconds {
		binary.LittleEndian.PutUint64(fixed[40+8*k:], math.Float64bits(sec))
	}
	return append(buf, fixed[:]...)
}

func (h *ExecResultHeader) decodeBinary(b []byte) error {
	if len(b) != execResultHeaderLen {
		return fmt.Errorf("wire: exec result header %d bytes, want %d", len(b), execResultHeaderLen)
	}
	h.TaskID = int64(binary.LittleEndian.Uint64(b[0:]))
	h.OutLo = int(int32(binary.LittleEndian.Uint32(b[8:])))
	h.C = int(int32(binary.LittleEndian.Uint32(b[12:])))
	h.H = int(int32(binary.LittleEndian.Uint32(b[16:])))
	h.W = int(int32(binary.LittleEndian.Uint32(b[20:])))
	h.DType = int(int32(binary.LittleEndian.Uint32(b[24:])))
	h.Scale = math.Float32frombits(binary.LittleEndian.Uint32(b[28:]))
	h.ComputeSeconds = math.Float64frombits(binary.LittleEndian.Uint64(b[32:]))
	for k := range h.KernelSeconds {
		h.KernelSeconds[k] = math.Float64frombits(binary.LittleEndian.Uint64(b[40+8*k:]))
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
	TaskID  int64  `json:"task_id"`
	Message string `json:"message"`
}
