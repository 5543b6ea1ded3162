package channel

import "sync"

// Arena size classes. A buffer's capacity is its request rounded up to a
// whole KiB (64 samples) up to 32 KiB, and to a whole 8 KiB page above,
// which is about what the Go allocator rounds such requests up to anyway.
// Each class keeps its own stack of free buffers, so a request is served
// only by a buffer of its own class and a short request never takes a
// long buffer that a later long request then has to allocate again.
const (
	smallQuantum = 64      // samples
	smallMax     = 2048    // samples: the last small class
	largeQuantum = 512     // samples
	pooledMax    = 1 << 16 // samples: longer buffers are left to the GC
	numClasses   = smallMax/smallQuantum + (pooledMax-smallMax)/largeQuantum

	// arenaIdleTrials: a class that no request asked for while this many
	// trials ended gives its free buffers to the GC. The free lists then
	// hold about the working set of the trials running now, not of every
	// experiment a process has run; the GC counts what they hold as live
	// heap, so keeping less keeps the resident set down.
	arenaIdleTrials = 8
	// arenaMaxFree bounds the samples the free lists keep (4 MiB).
	arenaMaxFree = 1 << 18
)

// class returns the size class of an n-sample request (0 < n <=
// pooledMax) and the capacity its buffers have.
func class(n int) (k, capacity int) {
	if n <= smallMax {
		k = (n + smallQuantum - 1) / smallQuantum
		return k - 1, k * smallQuantum
	}
	k = (n - smallMax + largeQuantum - 1) / largeQuantum
	return smallMax/smallQuantum + k - 1, smallMax + k*largeQuantum
}

// sampleArena is the process-wide free list of sample buffers behind
// Medium.Samples and Medium.Observe. It is safe for concurrent use: the
// media of parallel experiment workers and shieldd sessions share it.
type sampleArena struct {
	mu   sync.Mutex
	free [numClasses][][]complex128
	// ends counts the trials that handed buffers back; used[k] is its
	// value at the last request of class k.
	ends uint64
	used [numClasses]uint64
	// samples counts the capacity on the free lists.
	samples int
}

// arena is the one sample arena of the process.
var arena sampleArena

// get returns an n-sample buffer with arbitrary contents.
func (a *sampleArena) get(n int) []complex128 {
	if n == 0 || n > pooledMax {
		return make([]complex128, n)
	}
	k, c := class(n)
	a.mu.Lock()
	a.used[k] = a.ends
	if st := a.free[k]; len(st) > 0 {
		b := st[len(st)-1]
		st[len(st)-1] = nil
		a.free[k] = st[:len(st)-1]
		a.samples -= c
		a.mu.Unlock()
		return b[:n]
	}
	a.mu.Unlock()
	return make([]complex128, n, c)
}

// put hands the buffers of one ended trial back to the free lists. It
// first drops the classes that went idle, and it drops buffers beyond
// arenaMaxFree.
func (a *sampleArena) put(bufs [][]complex128) {
	if len(bufs) == 0 {
		return
	}
	a.mu.Lock()
	a.ends++
	for k := range a.free {
		if st := a.free[k]; len(st) > 0 && a.ends-a.used[k] > arenaIdleTrials {
			a.samples -= len(st) * cap(st[0])
			clear(st)
			a.free[k] = st[:0]
		}
	}
	for _, b := range bufs {
		c := cap(b)
		if c == 0 || c > pooledMax || a.samples+c > arenaMaxFree {
			continue
		}
		k, _ := class(c)
		a.free[k] = append(a.free[k], b[:0])
		a.samples += c
	}
	a.mu.Unlock()
}
