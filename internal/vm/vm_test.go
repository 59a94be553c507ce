package vm

import (
	"math/rand"
	"testing"
	"testing/quick"
)

func newSpace(t *testing.T) *AddressSpace {
	t.Helper()
	fa := NewFrameAllocator(256 << 20) // paper's 256 MB nodes
	return NewAddressSpace("test", fa, DefaultCostModel())
}

func TestPagesSpanned(t *testing.T) {
	cases := []struct {
		addr VirtAddr
		n    int
		want int
	}{
		{0, 0, 0},
		{0, 1, 1},
		{0, PageSize, 1},
		{0, PageSize + 1, 2},
		{PageSize - 1, 2, 2},
		{0, 4 * PageSize, 4},
		{100, 4000, 2}, // crosses one boundary
	}
	for _, c := range cases {
		if got := PagesSpanned(c.addr, c.n); got != c.want {
			t.Errorf("PagesSpanned(%#x, %d) = %d, want %d", c.addr, c.n, got, c.want)
		}
	}
}

func TestAllocIsPageAligned(t *testing.T) {
	s := newSpace(t)
	for _, n := range []int{1, 100, PageSize, PageSize + 1, 12 << 10} {
		a := s.Alloc(n)
		if a.Offset() != 0 {
			t.Errorf("Alloc(%d) = %#x not page aligned", n, a)
		}
	}
}

func TestTranslateTilesRange(t *testing.T) {
	s := newSpace(t)
	property := func(sz uint16, off uint8, ln uint16) bool {
		size := int(sz)%32768 + 1
		a := s.Alloc(size)
		o := int(off) % size
		n := int(ln)%(size-o) + 1
		z, err := s.Translate(a+VirtAddr(o), n)
		if err != nil {
			return false
		}
		if z.Len() != n {
			return false
		}
		// Interior boundaries must be page-aligned on the virtual side:
		// each segment except the last must end where a page ends.
		covered := 0
		for i, seg := range z.Segs {
			if seg.Len <= 0 {
				return false
			}
			if i < len(z.Segs)-1 {
				endVirt := uint64(a) + uint64(o) + uint64(covered+seg.Len)
				if endVirt&PageMask != 0 {
					return false
				}
			}
			covered += seg.Len
		}
		return covered == n
	}
	if err := quick.Check(property, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

func TestTranslateScattersAcrossPages(t *testing.T) {
	s := newSpace(t)
	a := s.Alloc(4 * PageSize)
	z, err := s.Translate(a, 4*PageSize)
	if err != nil {
		t.Fatal(err)
	}
	if len(z.Segs) < 2 {
		t.Errorf("4-page buffer translated to %d segments; interleaved allocator should scatter", len(z.Segs))
	}
}

func TestTranslateUnmappedFails(t *testing.T) {
	s := newSpace(t)
	if _, err := s.Translate(VirtAddr(0xdead000), 100); err == nil {
		t.Error("translating unmapped range succeeded")
	}
	if _, err := s.Translate(s.Alloc(100), 0); err == nil {
		t.Error("zero-length translate succeeded")
	}
}

func TestTranslateCostStaircase(t *testing.T) {
	s := newSpace(t)
	a := s.Alloc(64 << 10)
	m := s.CostModel()
	onePage := s.TranslateCost(a, 3000)
	twoPages := s.TranslateCost(a, 5000)
	if onePage != m.Base+m.PerPage {
		t.Errorf("1-page cost = %v, want base+1*per", onePage)
	}
	if twoPages != m.Base+2*m.PerPage {
		t.Errorf("2-page cost = %v, want base+2*per", twoPages)
	}
	if twoPages <= onePage {
		t.Error("cost must step up crossing a page boundary")
	}
}

func TestTranslateCostLongMessageNearPaper(t *testing.T) {
	// Paper: masking hides "around 12-13 µs for long messages". A 64 KB
	// buffer (16 pages) should cost on that order.
	s := newSpace(t)
	a := s.Alloc(64 << 10)
	c := s.TranslateCost(a, 64<<10)
	if us := c.Microseconds(); us < 8 || us > 18 {
		t.Errorf("64KB translate = %.1fµs, want ~12-13µs", us)
	}
}

func TestZeroBufferSlice(t *testing.T) {
	z := ZeroBuffer{Segs: []Segment{{Addr: 0x1000, Len: 100}, {Addr: 0x9000, Len: 50}}}
	sub := z.Slice(90, 30)
	if sub.Len() != 30 {
		t.Fatalf("slice len = %d, want 30", sub.Len())
	}
	if len(sub.Segs) != 2 {
		t.Fatalf("slice segs = %d, want 2", len(sub.Segs))
	}
	if sub.Segs[0].Addr != 0x1000+90 || sub.Segs[0].Len != 10 {
		t.Errorf("first seg = %+v", sub.Segs[0])
	}
	if sub.Segs[1].Addr != 0x9000 || sub.Segs[1].Len != 20 {
		t.Errorf("second seg = %+v", sub.Segs[1])
	}
}

func TestZeroBufferSliceProperty(t *testing.T) {
	s := newSpace(t)
	a := s.Alloc(32 << 10)
	z, err := s.Translate(a, 32<<10)
	if err != nil {
		t.Fatal(err)
	}
	property := func(off, n uint16) bool {
		o := int(off) % z.Len()
		k := int(n) % (z.Len() - o)
		sub := z.Slice(o, k)
		if sub.Len() != k {
			return false
		}
		// slicing a slice agrees with slicing the original
		if k > 2 {
			if sub.Slice(1, k-2).Len() != k-2 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(property, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

func TestZeroBufferSliceOutOfRangePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("out-of-range slice did not panic")
		}
	}()
	z := ZeroBuffer{Segs: []Segment{{Addr: 0, Len: 10}}}
	z.Slice(5, 10)
}

func TestFreeReturnsFrames(t *testing.T) {
	fa := NewFrameAllocator(1 << 20)
	s := NewAddressSpace("x", fa, DefaultCostModel())
	before := fa.FreeFrames()
	a := s.Alloc(8 * PageSize)
	if fa.FreeFrames() != before-8 {
		t.Fatalf("free frames after alloc = %d, want %d", fa.FreeFrames(), before-8)
	}
	s.Free(a, 8*PageSize)
	if fa.FreeFrames() != before {
		t.Errorf("free frames after free = %d, want %d", fa.FreeFrames(), before)
	}
	if _, err := s.Translate(a, 10); err == nil {
		t.Error("translate after free succeeded")
	}
}

func TestPinPreventsFree(t *testing.T) {
	s := newSpace(t)
	a := s.Alloc(PageSize)
	s.Pin(a, PageSize)
	if s.PinnedPages() != 1 {
		t.Fatalf("pinned pages = %d, want 1", s.PinnedPages())
	}
	func() {
		defer func() {
			if recover() == nil {
				t.Error("freeing pinned page did not panic")
			}
		}()
		s.Free(a, PageSize)
	}()
	s.Unpin(a, PageSize)
	s.Free(a, PageSize) // now fine
}

func TestPinNests(t *testing.T) {
	s := newSpace(t)
	a := s.Alloc(PageSize)
	s.Pin(a, PageSize)
	s.Pin(a, PageSize)
	s.Unpin(a, PageSize)
	if s.PinnedPages() != 1 {
		t.Errorf("pin count not nested: pinned pages = %d, want 1", s.PinnedPages())
	}
	s.Unpin(a, PageSize)
	if s.PinnedPages() != 0 {
		t.Errorf("pinned pages = %d, want 0", s.PinnedPages())
	}
}

func TestFrameAllocatorNoDoubleAlloc(t *testing.T) {
	fa := NewFrameAllocator(1 << 20) // 256 frames
	seen := make(map[uint64]bool)
	for i := uint64(0); i < fa.TotalFrames(); i++ {
		fr := fa.Alloc()
		if seen[fr] {
			t.Fatalf("frame %d allocated twice", fr)
		}
		seen[fr] = true
	}
}

func TestFrameAllocatorInterleaves(t *testing.T) {
	fa := NewFrameAllocator(1 << 20)
	a, b := fa.Alloc(), fa.Alloc()
	if b == a+1 {
		t.Errorf("consecutive allocations %d, %d are physically adjacent; allocator should interleave", a, b)
	}
}

// eagerFrameOrder is the allocator's reference free stack, built in full:
// the interleaved order 0, n/2, 1, n/2+1, ... (odd tail last), reversed
// so that pops come off the end in that order.
func eagerFrameOrder(n uint64) []uint64 {
	half := n / 2
	order := make([]uint64, 0, n)
	for i := uint64(0); i < half; i++ {
		order = append(order, i, half+i)
	}
	for i := 2 * half; i < n; i++ {
		order = append(order, i)
	}
	stack := make([]uint64, n)
	for i, fr := range order {
		stack[len(order)-1-i] = fr
	}
	return stack
}

// TestFrameAllocatorMatchesEagerOrder replays random alloc/free sequences
// against the fully built reference stack: every frame returned, and
// FreeFrames after every step, must agree.
func TestFrameAllocatorMatchesEagerOrder(t *testing.T) {
	for _, frames := range []uint64{1, 2, 7, 16, 33} {
		for seed := int64(0); seed < 20; seed++ {
			rng := rand.New(rand.NewSource(seed))
			fa := NewFrameAllocator(frames << PageShift)
			ref := eagerFrameOrder(frames)
			var held []uint64
			for step := 0; step < 200; step++ {
				if len(ref) > 0 && (len(held) == 0 || rng.Intn(3) > 0) {
					want := ref[len(ref)-1]
					ref = ref[:len(ref)-1]
					if got := fa.Alloc(); got != want {
						t.Fatalf("frames=%d seed=%d step %d: Alloc = %d, want %d", frames, seed, step, got, want)
					}
					held = append(held, want)
				} else if len(held) > 0 {
					i := rng.Intn(len(held))
					fr := held[i]
					held = append(held[:i], held[i+1:]...)
					fa.Free(fr)
					ref = append(ref, fr)
				}
				if got := fa.FreeFrames(); got != uint64(len(ref)) {
					t.Fatalf("frames=%d seed=%d step %d: FreeFrames = %d, want %d", frames, seed, step, got, len(ref))
				}
			}
		}
	}
}

func TestCostModelZeroLength(t *testing.T) {
	m := DefaultCostModel()
	if m.Cost(0, 0) != 0 {
		t.Error("zero-length translation should be free")
	}
	if m.Cost(0, -5) != 0 {
		t.Error("negative-length translation should be free")
	}
}
