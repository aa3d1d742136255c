package main

import (
	"bufio"
	"fmt"
	"io"
	"os"
	"os/exec"
	"runtime"
	"strconv"
	"syscall"
	"time"
	"unsafe"
)

// Host speed. The benchmark shares its machine with other tenants, and
// the speed it gets drifts between minutes: the same pass has taken
// anywhere from 1× to 4× its quiet-host time, with little steal time
// showing, and the slowdown falls on the caches more than on the core.
// A median over one run cannot remove drift between runs, so every timed
// interval is bracketed by samples of a fixed reference kernel that
// calls no program code, and is reported in reference seconds: its wall
// time divided by the host factor, the kernel's mean time at the two
// brackets over its time on a quiet host. A program change moves the
// interval and not the kernel, so it shows in full; a slower host moves
// both, and cancels out.
//
// The kernel runs in a helper process (this binary with -host-kernel),
// so its memory never counts toward the benchmark's own peak RSS. It
// runs only while the benchmark is quiescent, after a collection,
// between timed intervals, once on each processor in turn.

// quietKernelSeconds is the kernel's time on a quiet host (a 2-vCPU
// Xeon VM): the unit in which a host factor of 1 reads.
const quietKernelSeconds = 0.0052

// The kernel's fixed work.
const (
	kernelEvents  = 30_000 // pops and pushes on a 4096-entry event heap
	kernelLookups = 60_000 // lookups in a 32768-entry map
	kernelHops    = 50_000 // dependent loads through each chase ring
	heapEntries   = 4096
	mapEntries    = 1 << 15
)

// chaseSizes are the kernel's pointer-chase rings, in 4-byte entries:
// 1 MB stays in a core's private cache, 16 MB lives in the shared
// last-level cache when the neighbours leave room for it.
var chaseSizes = []int{1 << 18, 1 << 22}

// hostMeter is the benchmark's end of the helper process.
type hostMeter struct {
	cmd     *exec.Cmd
	in      io.WriteCloser
	out     *bufio.Scanner
	last    float64   // the latest sample's host factor
	factors []float64 // every sample's host factor, in order
}

// startHostMeter starts the helper and takes a first sample.
func startHostMeter() (*hostMeter, error) {
	self, err := os.Executable()
	if err != nil {
		return nil, err
	}
	cmd := exec.Command(self, "-host-kernel")
	cmd.Stderr = os.Stderr
	in, err := cmd.StdinPipe()
	if err != nil {
		return nil, err
	}
	out, err := cmd.StdoutPipe()
	if err != nil {
		return nil, err
	}
	if err := cmd.Start(); err != nil {
		return nil, err
	}
	m := &hostMeter{cmd: cmd, in: in, out: bufio.NewScanner(out)}
	if err := m.sample(); err != nil {
		m.stop()
		return nil, err
	}
	return m, nil
}

// sample collects the heap and has the helper run the kernel once.
func (m *hostMeter) sample() error {
	runtime.GC()
	if _, err := io.WriteString(m.in, "sample\n"); err != nil {
		return err
	}
	if !m.out.Scan() {
		if err := m.out.Err(); err != nil {
			return err
		}
		return io.ErrUnexpectedEOF
	}
	secs, err := strconv.ParseFloat(m.out.Text(), 64)
	if err != nil {
		return err
	}
	m.last = secs / quietKernelSeconds
	m.factors = append(m.factors, m.last)
	return nil
}

// stop ends the helper and waits for it; later calls do nothing.
func (m *hostMeter) stop() error {
	if m.in == nil {
		return nil
	}
	m.in.Close()
	m.in = nil
	return m.cmd.Wait()
}

// interval is one timed interval: wall seconds, reference seconds and
// the host factor between them.
type interval struct{ wall, ref, factor float64 }

// time runs f and times it against the samples before and after it.
func (m *hostMeter) time(f func() error) (interval, error) {
	before := m.last
	t := time.Now()
	if err := f(); err != nil {
		return interval{}, err
	}
	wall := time.Since(t).Seconds()
	if err := m.sample(); err != nil {
		return interval{}, err
	}
	factor := (before + m.last) / 2
	return interval{wall, wall / factor, factor}, nil
}

// hostKernelChild is the helper. For every line on stdin it runs the
// kernel on each processor it may use, one after another, and prints
// their mean time in seconds. It ends when stdin closes.
func hostKernelChild() error {
	cpus, err := allowedCPUs()
	if err != nil {
		return err
	}
	k := newKernel()
	sc := bufio.NewScanner(os.Stdin)
	for sc.Scan() {
		var sum float64
		for _, cpu := range cpus {
			secs, err := pinned(cpu, k.run)
			if err != nil {
				return err
			}
			sum += secs
		}
		fmt.Println(sum / float64(len(cpus)))
	}
	return sc.Err()
}

// kernel is the reference work's state. It is built once; every run
// re-seeds the event heap and only reads the rest, so every run does the
// same work.
type kernel struct {
	table  map[uint64]uint32
	keys   []uint64
	chases [][]uint32
	heap   []uint64
	sink   uint64 // keeps the work observable
}

func newKernel() *kernel {
	k := &kernel{table: make(map[uint64]uint32, mapEntries), heap: make([]uint64, heapEntries)}
	r := splitmix{0x5eed}
	for i := uint32(0); i < mapEntries; i++ {
		key := r.next()&^(mapEntries-1) | uint64(i)
		k.table[key] = i
		k.keys = append(k.keys, key)
	}
	for _, n := range chaseSizes {
		perm := make([]uint32, n)
		for i := range perm {
			perm[i] = uint32(i)
		}
		shuffle(&r, perm)
		ring := make([]uint32, n)
		for i, p := range perm {
			ring[p] = perm[(i+1)%n]
		}
		k.chases = append(k.chases, ring)
	}
	return k
}

// run does the reference work twice and returns the second time's
// seconds: the first brings the kernel's state into the caches the way
// the timed one uses it, so the timing does not depend on how much of
// it the benchmark's own work evicted.
func (k *kernel) run() float64 {
	k.work()
	t := time.Now()
	k.work()
	return time.Since(t).Seconds()
}

// work is the reference work: an event loop in miniature, with a
// binary min-heap of event times (branchy, cache-resident), hash-map
// lookups keyed by the popped events, and dependent pointer chases
// through each ring.
func (k *kernel) work() {
	r := splitmix{1}
	h := k.heap
	for i := range h {
		h[i] = r.next() >> 40
	}
	for i := len(h)/2 - 1; i >= 0; i-- {
		siftDown(h, i)
	}
	var acc uint64
	for i := 0; i < kernelEvents; i++ {
		now := h[0]
		h[0] = now + 1 + r.next()>>52
		siftDown(h, 0)
		acc += now
	}
	for i := 0; i < kernelLookups; i++ {
		acc += uint64(k.table[k.keys[(acc+uint64(i))%mapEntries]])
	}
	for _, ring := range k.chases {
		x := uint32(acc % uint64(len(ring)))
		for i := 0; i < kernelHops; i++ {
			x = ring[x]
		}
		acc += uint64(x)
	}
	k.sink += acc
}

func siftDown(h []uint64, i int) {
	for {
		c := 2*i + 1
		if c >= len(h) {
			return
		}
		if c+1 < len(h) && h[c+1] < h[c] {
			c++
		}
		if h[i] <= h[c] {
			return
		}
		h[i], h[c] = h[c], h[i]
		i = c
	}
}

// cpuSet is a Linux CPU affinity mask (1024 processors).
type cpuSet [16]uint64

func affinity(op uintptr, set *cpuSet) error {
	_, _, errno := syscall.RawSyscall(op, 0, unsafe.Sizeof(*set), uintptr(unsafe.Pointer(set)))
	if errno != 0 {
		return errno
	}
	return nil
}

// allowedCPUs lists the processors the calling thread may run on.
func allowedCPUs() ([]int, error) {
	var set cpuSet
	if err := affinity(syscall.SYS_SCHED_GETAFFINITY, &set); err != nil {
		return nil, err
	}
	var cpus []int
	for i := range 64 * len(set) {
		if set[i/64]&(1<<(i%64)) != 0 {
			cpus = append(cpus, i)
		}
	}
	return cpus, nil
}

// pinned runs f on one processor, on a locked thread that gets its
// former affinity back before it returns to the runtime.
func pinned(cpu int, f func() float64) (float64, error) {
	runtime.LockOSThread()
	defer runtime.UnlockOSThread()
	var old, one cpuSet
	if err := affinity(syscall.SYS_SCHED_GETAFFINITY, &old); err != nil {
		return 0, err
	}
	one[cpu/64] = 1 << (cpu % 64)
	if err := affinity(syscall.SYS_SCHED_SETAFFINITY, &one); err != nil {
		return 0, err
	}
	out := f()
	return out, affinity(syscall.SYS_SCHED_SETAFFINITY, &old)
}
