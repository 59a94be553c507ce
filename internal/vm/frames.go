package vm

import "fmt"

// FrameAllocator hands out physical page frames for one node. Frames are
// deliberately handed out in an interleaved order (low half / high half
// alternating), so virtually contiguous buffers are physically scattered —
// the common state of a machine whose page pool has been churned. This is
// what makes zero buffers genuinely multi-segment.
//
// The order is computed on demand rather than materialized: only frames
// that were freed are kept, on a stack that is reused (LIFO) before the
// order continues.
type FrameAllocator struct {
	totalFrames uint64
	next        uint64   // frames of the order handed out so far
	freed       []uint64 // freed frame numbers, pop from end
	allocated   map[uint64]bool
}

// NewFrameAllocator manages a physical memory of size bytes (rounded down
// to whole frames).
func NewFrameAllocator(size uint64) *FrameAllocator {
	return &FrameAllocator{
		totalFrames: size >> PageShift,
		allocated:   make(map[uint64]bool),
	}
}

// orderFrame is the k-th frame of the interleaved order 0, n/2, 1,
// n/2+1, ...; with an odd frame count the last frame comes last.
func (f *FrameAllocator) orderFrame(k uint64) uint64 {
	half := f.totalFrames / 2
	switch {
	case k >= 2*half:
		return k
	case k%2 == 0:
		return k / 2
	default:
		return half + k/2
	}
}

// TotalFrames reports the number of managed frames.
func (f *FrameAllocator) TotalFrames() uint64 { return f.totalFrames }

// FreeFrames reports the number of unallocated frames.
func (f *FrameAllocator) FreeFrames() uint64 {
	return f.totalFrames - f.next + uint64(len(f.freed))
}

// Alloc returns a free frame number: the most recently freed one, else
// the next of the interleaved order. It panics when physical memory is
// exhausted: the simulated workloads are sized to fit, so exhaustion is a
// configuration bug.
func (f *FrameAllocator) Alloc() uint64 {
	var fr uint64
	if n := len(f.freed); n > 0 {
		fr = f.freed[n-1]
		f.freed = f.freed[:n-1]
	} else if f.next < f.totalFrames {
		fr = f.orderFrame(f.next)
		f.next++
	} else {
		panic("vm: out of physical frames")
	}
	f.allocated[fr] = true
	return fr
}

// Free returns a frame to the pool.
func (f *FrameAllocator) Free(frame uint64) {
	if !f.allocated[frame] {
		panic(fmt.Sprintf("vm: freeing unallocated frame %d", frame))
	}
	delete(f.allocated, frame)
	f.freed = append(f.freed, frame)
}

// Allocated reports whether a frame is currently allocated.
func (f *FrameAllocator) Allocated(frame uint64) bool { return f.allocated[frame] }
