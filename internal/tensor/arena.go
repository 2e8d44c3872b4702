package tensor

import (
	"fmt"
	"math/bits"
	"sync"
)

// The tensor arena eliminates steady-state allocations on the inference hot
// path. Backing slices are drawn from sync.Pools bucketed by power-of-two
// capacity; a pooled tensor carries a pointer to its full-capacity slab so
// Recycle can return the memory without re-boxing (and therefore without
// allocating). Layer outputs inside RunTile, block-path intermediates and
// tile slices all cycle through the arena, so a warmed-up executor performs
// no per-inference tensor allocations. The arena is written once over the
// element type; float32 and int8 maps draw from separate instances.

const (
	// arenaMinBits is the smallest pooled class (256 elements); smaller
	// tensors are cheaper to allocate than to pool.
	arenaMinBits = 8
	// arenaMaxBits caps the pooled class (2^27 elements = 512 MiB of
	// float32); larger requests fall through to plain allocation.
	arenaMaxBits = 27
)

// elem is a feature-map element type.
type elem interface{ float32 | int8 }

// slabs pools backing slices of one element type by size class.
type slabs[E elem] [arenaMaxBits + 1]sync.Pool

var (
	farena slabs[float32]
	qarena slabs[int8]
)

// arenaClass returns the smallest class whose slabs hold n elements, or -1
// when n is outside the pooled range.
func arenaClass(n int) int {
	c := bits.Len(uint(n - 1)) // ceil(log2(n)) for n > 1
	if n <= 1 {
		c = 0
	}
	if c < arenaMinBits {
		c = arenaMinBits
	}
	if c > arenaMaxBits {
		return -1
	}
	return c
}

// get returns c*h*w elements, arena-backed when the size is poolable, and
// the slab to hand back to put (nil for a plain allocation). The contents
// are UNSPECIFIED.
func (p *slabs[E]) get(c, h, w int) ([]E, *[]E) {
	if c <= 0 || h <= 0 || w <= 0 {
		panic(fmt.Sprintf("tensor: invalid extent %dx%dx%d", c, h, w))
	}
	n := c * h * w
	cl := arenaClass(n)
	if cl < 0 {
		return make([]E, n), nil
	}
	if v := p[cl].Get(); v != nil {
		slab := v.(*[]E)
		return (*slab)[:n], slab
	}
	s := make([]E, 1<<cl)
	return s[:n], &s
}

// put returns a slab to its class; nil and foreign slabs (never produced by
// get) are ignored.
func (p *slabs[E]) put(slab *[]E) {
	if slab == nil {
		return
	}
	n := cap(*slab)
	if n == 0 || n&(n-1) != 0 {
		return
	}
	cl := bits.Len(uint(n)) - 1
	if cl < arenaMinBits || cl > arenaMaxBits {
		return
	}
	p[cl].Put(slab)
}

// kout is a generic kernel's output, a c x h x w map of E arena-backed like
// Alloc's; ftensor and qtensor give it its typed header.
type kout[E elem] struct {
	c, h, w int
	data    []E
	slab    *[]E
}

func allocOut[E elem](c, h, w int) kout[E] {
	a, ok := any(&farena).(*slabs[E])
	if !ok {
		a = any(&qarena).(*slabs[E])
	}
	data, slab := a.get(c, h, w)
	return kout[E]{c, h, w, data, slab}
}

func ftensor(o kout[float32]) Tensor {
	return Tensor{C: o.c, H: o.h, W: o.w, Data: o.data, slab: o.slab}
}

func qtensor(o kout[int8], scale float32) QTensor {
	return QTensor{C: o.c, H: o.h, W: o.w, Scale: scale, Data: o.data, slab: o.slab}
}

// Alloc returns a tensor of the given extent whose backing slice comes from
// the arena when possible. The contents are UNSPECIFIED — every caller must
// overwrite all elements before reading any (all tensor kernels do: conv
// seeds each row with the bias, pools and copies write every cell). Use New
// when zero-initialised contents are required.
func Alloc(c, h, w int) Tensor {
	return ftensor(allocOut[float32](c, h, w))
}

// AllocQ returns an int8 tensor of the given extent and scale, arena-backed
// when possible. Contents are UNSPECIFIED, exactly like Alloc.
func AllocQ(c, h, w int, scale float32) QTensor {
	return qtensor(allocOut[int8](c, h, w), scale)
}

// Recycle returns a tensor's backing slice to the arena. The caller must own
// t exclusively and must not touch t.Data (or any slice of it) afterwards.
// Recycling a tensor that did not come from Alloc (or a shared/zero tensor)
// is a safe no-op, so callers can recycle unconditionally on owned values.
func Recycle(t Tensor) { farena.put(t.slab) }

// RecycleQ returns an int8 tensor's backing slice to the arena; same
// ownership contract as Recycle.
func RecycleQ(q QTensor) { qarena.put(q.slab) }
