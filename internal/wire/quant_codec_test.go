package wire

import (
	"bytes"
	"math"
	"math/rand"
	"testing"

	"pico/internal/tensor"
)

// TestQCodecFastMatchesPortable property-tests the aliasing int8 codec
// against the per-element reference: identical bytes out, identical values
// back, across the full int8 range.
func TestQCodecFastMatchesPortable(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	for trial := 0; trial < 50; trial++ {
		c, h, w := 1+rng.Intn(4), 1+rng.Intn(9), 1+rng.Intn(9)
		src := tensor.AllocQ(c, h, w, rng.Float32()+0.001)
		for i := range src.Data {
			src.Data[i] = int8(rng.Intn(256) - 128)
		}
		fast := EncodeQTensor(src)
		portable := EncodeQTensorPortable(src)
		if !bytes.Equal(fast, portable) {
			t.Fatalf("trial %d: fast and portable int8 encodings differ", trial)
		}
		view, pooled := MapBytes(tensor.MapOfQ(src))
		if !bytes.Equal(view, portable) {
			t.Fatalf("trial %d: QTensorBytes differs from portable encoding", trial)
		}
		backFast, err := DecodeQTensor(c, h, w, src.Scale, portable)
		if err != nil {
			t.Fatal(err)
		}
		backPortable, err := DecodeQTensorPortable(c, h, w, src.Scale, fast)
		if err != nil {
			t.Fatal(err)
		}
		if math.Float32bits(backFast.Scale) != math.Float32bits(src.Scale) {
			t.Fatalf("trial %d: decode dropped the scale", trial)
		}
		for i := range src.Data {
			if backFast.Data[i] != src.Data[i] {
				t.Fatalf("trial %d: fast decode mismatch at %d", trial, i)
			}
			if backPortable.Data[i] != src.Data[i] {
				t.Fatalf("trial %d: portable decode mismatch at %d", trial, i)
			}
		}
		if pooled {
			PutBuffer(view)
		}
		PutBuffer(fast)
		PutBuffer(portable)
		tensor.RecycleQ(backFast)
		tensor.RecycleQ(backPortable)
	}
}

// TestQTensorBytesAliasing: QTensorBytes must alias the tensor's storage on
// every host — int8 has no endianness, so the zero-copy contract is
// unconditional.
func TestQTensorBytesAliasing(t *testing.T) {
	src := tensor.AllocQ(1, 2, 2, 0.5)
	view, pooled := MapBytes(tensor.MapOfQ(src))
	if pooled {
		t.Fatal("QTensorBytes returned a pooled copy")
	}
	src.Data[0] = -77
	var want int8 = -77
	if view[0] != byte(want) {
		t.Fatal("QTensorBytes does not alias tensor storage")
	}
}

// TestQTensorPayloadQuarterSize pins the headline payload property: an int8
// tile costs exactly a quarter of the float32 wire bytes at equal extent.
func TestQTensorPayloadQuarterSize(t *testing.T) {
	f := tensor.New(16, 7, 9)
	q := tensor.AllocQ(16, 7, 9, 1)
	fb, _ := MapBytes(tensor.MapOf(f))
	qb, _ := MapBytes(tensor.MapOfQ(q))
	if len(fb) != 4*len(qb) {
		t.Fatalf("float payload %d bytes, int8 payload %d bytes: want exactly 4x", len(fb), len(qb))
	}
}

func TestQTensorCodecErrors(t *testing.T) {
	if _, err := DecodeQTensor(0, 1, 1, 1, nil); err == nil {
		t.Fatal("zero extent accepted")
	}
	if _, err := DecodeQTensor(1, 2, 2, 1, make([]byte, 3)); err == nil {
		t.Fatal("short payload accepted")
	}
	if _, err := DecodeQTensorPortable(0, 1, 1, 1, nil); err == nil {
		t.Fatal("portable: zero extent accepted")
	}
	if _, err := DecodeQTensorPortable(1, 2, 2, 1, make([]byte, 5)); err == nil {
		t.Fatal("portable: oversize payload accepted")
	}
	c, h, w := overflowExtent()
	if _, err := DecodeQTensor(c, h, w, 1, nil); err == nil {
		t.Fatal("extent whose product overflows int accepted")
	}
	if _, err := DecodeQTensorPortable(c, h, w, 1, nil); err == nil {
		t.Fatal("portable: extent whose product overflows int accepted")
	}
}

// FuzzQTensorCodec feeds arbitrary bytes and extents to the int8 decoder;
// valid-length payloads must round-trip bit-exactly through both codec
// paths, everything else must error without panicking.
func FuzzQTensorCodec(f *testing.F) {
	f.Add(1, 2, 3, []byte{0, 1, 255, 128, 127, 2})
	f.Add(2, 2, 2, bytes.Repeat([]byte{0x80}, 8))
	f.Add(1, 1, 1, []byte{})
	f.Add(-1, 1, 1, []byte{7})
	f.Add(1<<22, 1<<21, 1<<21, []byte{}) // product wraps to 0 == len(payload)
	f.Fuzz(func(t *testing.T, c, h, w int, payload []byte) {
		qt, err := DecodeQTensor(c, h, w, 0.1, payload)
		qp, errP := DecodeQTensorPortable(c, h, w, 0.1, payload)
		if (err == nil) != (errP == nil) {
			t.Fatalf("fast err %v vs portable err %v", err, errP)
		}
		if err != nil {
			return
		}
		if float64(c)*float64(h)*float64(w) != float64(len(payload)) {
			t.Fatalf("decoded %dx%dx%d from a %d-byte payload", c, h, w, len(payload))
		}
		for i := range qt.Data {
			if qt.Data[i] != qp.Data[i] {
				t.Fatalf("fast and portable decodes differ at %d", i)
			}
		}
		enc := EncodeQTensor(qt)
		if !bytes.Equal(enc, payload) {
			t.Fatal("encode(decode(payload)) differs from payload")
		}
		PutBuffer(enc)
		tensor.RecycleQ(qt)
		tensor.RecycleQ(qp)
	})
}
