package numa

import (
	"fmt"
	"sync"
	"sync/atomic"
	"unsafe"
)

// Host backing store (DESIGN.md §5.4). An Array's elements live in fixed
// pages of pageElems elements, reached through a two-level table: a
// directory slot per dirPages pages, a page slot per page. Every slot of an
// untouched directory, and every untouched page slot, aliases one shared
// read-only zero page — the zeroChunk idiom of cache.go — so a load from
// memory nobody wrote returns zero with no branch, and host memory is spent
// only on pages some processor actually stored to. The MP and SHMEM programs
// index their private arrays globally (DESIGN.md §5a.4), so most of each
// array is never touched by its owner.
//
// The first store to a page installs a private page with a compare-and-swap
// (directory first, if that is untouched too). Under the goroutine engine an
// owner's store and a neighbour's shm put into the same page may race to
// install it; the loser hands its page back and writes into the winner's, so
// no write is lost. Slots are read with atomic loads, which compile to plain
// loads on amd64 and arm64.
//
// Only host memory is involved: element addresses, page homes and every
// charged cost come from Space.reserve and the line math.
const (
	pageLog   = 7
	pageElems = 1 << pageLog // elements per host page
	pageMask  = pageElems - 1
	dirLog    = 6
	dirPages  = 1 << dirLog // host pages per directory
	dirMask   = dirPages - 1
	dirShift  = pageLog + dirLog // element index -> directory index
)

type hostPage[T any] [pageElems]T

type pageDir[T any] [dirPages]atomic.Pointer[hostPage[T]]

// zeroMaxElem is the largest element size the shared zero page serves;
// arrays of larger elements get a zero page of their own.
const zeroMaxElem = 64

// zeroPage backs the zero page of every element type up to zeroMaxElem
// bytes (words, so any element type is aligned), and every slot of zeroDir
// points at it. Both are read-only: a store finds the zero page in its slot
// and installs a private page instead of writing. The all-zero bit pattern
// is the zero value of every Go type.
var (
	zeroPage [pageElems * zeroMaxElem / 8]uint64
	zeroDir  [dirPages]unsafe.Pointer
)

func init() {
	for i := range zeroDir {
		zeroDir[i] = unsafe.Pointer(&zeroPage)
	}
}

// pagePool is a Space's free list of released pages of one element type.
type pagePool[T any] struct {
	mu   sync.Mutex
	free []*hostPage[T]
}

// take returns a zeroed page, recycled when one is free.
func (pp *pagePool[T]) take() *hostPage[T] {
	pp.mu.Lock()
	n := len(pp.free)
	if n == 0 {
		pp.mu.Unlock()
		return new(hostPage[T])
	}
	pg := pp.free[n-1]
	pp.free = pp.free[:n-1]
	pp.mu.Unlock()
	*pg = hostPage[T]{}
	return pg
}

func (pp *pagePool[T]) put(pgs ...*hostPage[T]) {
	pp.mu.Lock()
	pp.free = append(pp.free, pgs...)
	pp.mu.Unlock()
}

// poolOf returns s's free list for element type T. The key is a typed nil
// pointer: interface equality compares dynamic types, so each T gets its own
// list and a page is only ever reused at the type it was made for.
func poolOf[T any](s *Space) *pagePool[T] {
	s.mu.Lock()
	defer s.mu.Unlock()
	key := any((*T)(nil))
	if pp, ok := s.pools[key]; ok {
		return pp.(*pagePool[T])
	}
	if s.pools == nil {
		s.pools = make(map[any]any)
	}
	pp := &pagePool[T]{}
	s.pools[key] = pp
	return pp
}

// initPages sets up an all-zero page table for n elements, and room for a
// page cache for each of procs processors.
func (a *Array[T]) initPages(n, procs int) {
	a.n = n
	a.hot = make([]*pageCache[T], procs)
	if a.elemSize <= zeroMaxElem {
		a.zpage = (*hostPage[T])(unsafe.Pointer(&zeroPage))
		a.zdir = (*pageDir[T])(unsafe.Pointer(&zeroDir))
	} else {
		a.zpage = new(hostPage[T])
		a.zdir = new(pageDir[T])
		for k := range a.zdir {
			a.zdir[k].Store(a.zpage)
		}
	}
	a.dirs = make([]atomic.Pointer[pageDir[T]], (n+1<<dirShift-1)>>dirShift)
	for k := range a.dirs {
		a.dirs[k].Store(a.zdir)
	}
	a.pool = poolOf[T](a.sp)
}

// at returns element i; an untouched page reads as zero.
func (a *Array[T]) at(i int) T {
	if uint(i) >= uint(a.n) {
		panic(rangeError{i, a.n})
	}
	return a.lookup(i)[i&pageMask]
}

// lookup returns the page holding element i, the zero page if untouched.
func (a *Array[T]) lookup(i int) *hostPage[T] {
	return a.dirs[i>>dirShift].Load()[i>>pageLog&dirMask].Load()
}

// ref returns a pointer through which element i may be written, installing
// its page on first touch.
func (a *Array[T]) ref(i int) *T {
	return &a.page(i)[i&pageMask]
}

// page returns the writable page holding element i.
func (a *Array[T]) page(i int) *hostPage[T] {
	if uint(i) >= uint(a.n) {
		panic(rangeError{i, a.n})
	}
	pg := a.lookup(i)
	if pg == a.zpage {
		pg = a.install(i)
	}
	return pg
}

// install gives element i's page private host memory. Whoever loses a
// compare-and-swap adopts the winner's directory or page.
func (a *Array[T]) install(i int) *hostPage[T] {
	ds := &a.dirs[i>>dirShift]
	d := ds.Load()
	if d == a.zdir {
		nd := new(pageDir[T])
		// nd is not yet shared: fill it from the zero directory with one
		// plain copy rather than dirPages atomic stores.
		*(*[dirPages]unsafe.Pointer)(unsafe.Pointer(nd)) = *(*[dirPages]unsafe.Pointer)(unsafe.Pointer(a.zdir))
		if ds.CompareAndSwap(a.zdir, nd) {
			d = nd
		} else {
			d = ds.Load()
		}
	}
	slot := &d[i>>pageLog&dirMask]
	pg := a.pool.take()
	if slot.CompareAndSwap(a.zpage, pg) {
		return pg
	}
	a.pool.put(pg)
	return slot.Load()
}

// rangeError is the panic value of an out-of-range element access. The
// accessors panic with it rather than a formatted message, which would cost
// them their inlinability.
type rangeError struct{ i, n int }

func (e rangeError) Error() string {
	return fmt.Sprintf("numa: index %d out of range [0,%d)", e.i, e.n)
}

// checkSpan panics unless [off, off+n) lies inside the array.
func (a *Array[T]) checkSpan(off, n int) {
	if off < 0 || n < 0 || off+n > a.n {
		panic(fmt.Sprintf("numa: span [%d,%d) out of range [0,%d)", off, off+n, a.n))
	}
}

// releasePages hands every installed page to the Space's free list and
// detaches the table, so any later access panics.
func (a *Array[T]) releasePages() {
	var pgs []*hostPage[T]
	for k := range a.dirs {
		d := a.dirs[k].Load()
		if d == a.zdir {
			continue
		}
		for s := range d {
			if pg := d[s].Load(); pg != a.zpage {
				pgs = append(pgs, pg)
			}
		}
	}
	a.pool.put(pgs...)
	a.dirs, a.hot = nil, nil
	a.n = 0
}

// Peek returns element i without charging the access: for the SHMEM
// runtime's host-side data motion (its transfers are costed as messages)
// and for result collection and tests.
func (a *Array[T]) Peek(i int) T { return a.at(i) }

// Poke stores v into element i without charging the access; see Peek.
func (a *Array[T]) Poke(i int, v T) { *a.ref(i) = v }

// PeekRange copies elements [off, off+len(dst)) into dst without charging,
// page by page.
func (a *Array[T]) PeekRange(dst []T, off int) {
	a.checkSpan(off, len(dst))
	for len(dst) > 0 {
		k := copy(dst, a.lookup(off)[off&pageMask:])
		dst, off = dst[k:], off+k
	}
}

// PokeRange copies src into elements [off, off+len(src)) without charging,
// page by page.
func (a *Array[T]) PokeRange(off int, src []T) {
	a.checkSpan(off, len(src))
	for len(src) > 0 {
		k := copy(a.page(off)[off&pageMask:], src)
		src, off = src[k:], off+k
	}
}

// pageCache is a small software TLB over an Array's page table, one in
// every Cursor and one per processor in every Array. Its page level is
// direct-mapped: tlbSize installed pages, a page in the entry its index
// selects. An edge loop alternates between its endpoints' pages, and a
// neighbour in a partitioned mesh is rarely more than a few pages away, so
// most accesses hit. A hit costs what the dense slice did — a bounds check
// and a load through one pointer. Behind the pages, two directory entries
// (the newest first) spare a miss most of the page-table walk.
//
// Keys are the page or directory index + 1, so the zero value is empty. An
// installed page or directory is never replaced (only the zero page and
// directory are, by install), so the cache cannot go stale while the array
// lives. The zero page and directory are never cached.
type pageCache[T any] struct {
	pages  [tlbSize]tlbEntry[T]
	dir    [2]*pageDir[T]
	dirKey [2]int
}

const (
	tlbLog  = 4
	tlbSize = 1 << tlbLog
	tlbMask = tlbSize - 1
)

type tlbEntry[T any] struct {
	pg  *hostPage[T]
	key int // page index + 1; 0 = empty
}

// entry returns the entry element i's page maps to.
func (pc *pageCache[T]) entry(i int) *tlbEntry[T] {
	return &pc.pages[i>>pageLog&tlbMask]
}

// cache returns processor me's page cache in a, made on its first access:
// most arrays are touched by few of the processors.
func (a *Array[T]) cache(me int) *pageCache[T] {
	if pc := a.hot[me]; pc != nil {
		return pc
	}
	return a.newCache(me)
}

func (a *Array[T]) newCache(me int) *pageCache[T] {
	pc := new(pageCache[T])
	a.hot[me] = pc
	return pc
}

// hit returns a pointer to element i of a if the cache holds its page, nil
// otherwise. It inlines; get and ref, which also handle misses, do not, so
// the hot paths try hit first.
func (pc *pageCache[T]) hit(a *Array[T], i int) *T {
	if e := &pc.pages[i>>pageLog&tlbMask]; e.key == i>>pageLog+1 && uint(i) < uint(a.n) {
		return &e.pg[i&pageMask]
	}
	return nil
}

// get returns element i of a.
func (pc *pageCache[T]) get(a *Array[T], i int) T {
	if q := pc.hit(a, i); q != nil {
		return *q
	}
	return pc.miss(a, i)[i&pageMask]
}

// ref returns a pointer through which element i of a may be written,
// installing its page on first touch.
func (pc *pageCache[T]) ref(a *Array[T], i int) *T {
	if q := pc.hit(a, i); q != nil {
		return q
	}
	pg := pc.miss(a, i)
	if pg == a.zpage {
		pg = a.install(i)
		*pc.entry(i) = tlbEntry[T]{pg, i>>pageLog + 1}
	}
	return &pg[i&pageMask]
}

// miss finds element i's page through the directory entries and remembers
// it if installed. It returns the zero page for an untouched page.
func (pc *pageCache[T]) miss(a *Array[T], i int) *hostPage[T] {
	if uint(i) >= uint(a.n) {
		panic(rangeError{i, a.n})
	}
	if dk := i>>dirShift + 1; pc.dirKey[0] != dk {
		if pc.dirKey[1] == dk {
			pc.dir[0], pc.dir[1] = pc.dir[1], pc.dir[0]
			pc.dirKey[0], pc.dirKey[1] = pc.dirKey[1], pc.dirKey[0]
		} else {
			d := a.dirs[dk-1].Load()
			if d == a.zdir {
				return a.zpage
			}
			pc.dir[1], pc.dirKey[1] = pc.dir[0], pc.dirKey[0]
			pc.dir[0], pc.dirKey[0] = d, dk
		}
	}
	pg := pc.dir[0][i>>pageLog&dirMask].Load()
	if pg != a.zpage {
		*pc.entry(i) = tlbEntry[T]{pg, i>>pageLog + 1}
	}
	return pg
}
