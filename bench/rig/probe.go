package rig

import (
	"bytes"
	"encoding/xml"
	"fmt"
	"hash/crc32"
	"io"
	"math/rand"
	"os"
	"runtime"
	"sort"
	"sync"
	"syscall"
	"time"
	"unsafe"

	"uvacg/bench/stats"
)

// The reference box is a 2-vCPU guest on a shared host, and its speed for
// ordinary code is not constant: for minutes at a time every workload
// runs 20–40 % slower, in CPU time per job as much as in wall time, and
// then recovers. What slows is not always the same thing. In some phases
// a dependent-chain spin loop, a pointer chase through 16 MiB and SHA-256
// hardly notice (1–8 %) while filling a buffer slows by 65 % and sorting
// by 23 % — a busy sibling hyperthread; in others those two move by 10 %
// and parsing with allocation or crossing into the kernel by 25 %. No run
// length averages a phase of minutes away, so the rig measures the box
// beside every grid with a fixed unit of ordinary code and reports every
// duration and rate at the reference speed (see speedIndex).

const (
	// probeInterval paces the probe: one unit every 10 ms costs about 2 %
	// of one core.
	probeInterval = 10 * time.Millisecond
	// probeRefMicros is the thread CPU time one unit took on the reference
	// box in its fast phases when the benchmark was defined. A box that
	// takes this long has speed index 1 and its metrics read as measured.
	probeRefMicros = 175.0
	probeFillBytes = 32 << 10
	probeSortInts  = 1024
	probePipeBytes = 16 << 10
	probeDocItems  = 12
)

// speedProbe runs one unit of fixed work every probeInterval on a thread
// of its own and records the thread CPU time each unit took. CPU time,
// not wall time: waiting for a core is the load the grid puts on the box,
// not the box's speed. The unit is a little of everything the daemons
// do, in code they do not share: fill and checksum a buffer, sort
// integers, parse an XML document into freshly allocated structs, and
// push bytes through a pipe and back. It was chosen against the daemons
// over 500 grids of all four workloads through fast and slow phases of
// both kinds: log(jobs_per_s) against log(unit time) has slope −0.9 to
// −1.4 (−1 would be exact), so dividing by the unit time takes most of a
// phase out and errs towards under-correcting; the parts alone range from
// −0.7 (XML) to −2 (fill and sort, in the phases they hardly feel).
type speedProbe struct {
	mu      sync.Mutex
	samples []probeSample
	stop    chan struct{}
	done    chan struct{}
}

type probeSample struct {
	at     time.Time
	micros float64
}

func startSpeedProbe() *speedProbe {
	p := &speedProbe{stop: make(chan struct{}), done: make(chan struct{})}
	go p.run()
	return p
}

// probeDoc is what the unit parses: a job-set-like document.
type probeDoc struct {
	Name  string `xml:"name,attr"`
	Items []struct {
		ID    int      `xml:"id,attr"`
		State string   `xml:"state"`
		Dir   string   `xml:"dir"`
		Args  []string `xml:"arg"`
	} `xml:"item"`
}

func probeDocument() []byte {
	var b bytes.Buffer
	b.WriteString(`<set name="probe">`)
	for i := 0; i < probeDocItems; i++ {
		fmt.Fprintf(&b, `<item id="%d"><state>running</state><dir>http://127.0.0.1:4000/FileSystemService/%d</dir><arg>alpha</arg><arg>beta-%d</arg></item>`, i, i*7919, i)
	}
	b.WriteString(`</set>`)
	return b.Bytes()
}

func (p *speedProbe) run() {
	defer close(p.done)
	// CLOCK_THREAD_CPUTIME_ID follows the thread, so the goroutine must.
	runtime.LockOSThread()
	defer runtime.UnlockOSThread()
	buf := make([]byte, probeFillBytes)
	src := make([]int, probeSortInts)
	dst := make([]int, probeSortInts)
	rng := rand.New(rand.NewSource(1))
	for i := range src {
		src[i] = rng.Int()
	}
	doc := probeDocument()
	piped := make([]byte, probePipeBytes)
	pr, pw, err := os.Pipe()
	if err != nil {
		return // no samples: every window reads speed 1
	}
	defer pr.Close()
	defer pw.Close()
	tick := time.NewTicker(probeInterval)
	defer tick.Stop()
	var sum uint32
	for i := 0; ; i++ {
		select {
		case <-p.stop:
			probeSink = sum
			return
		case <-tick.C:
		}
		before := threadCPU()
		for k := range buf {
			buf[k] = byte(k + i)
		}
		sum += crc32.ChecksumIEEE(buf)
		copy(dst, src)
		sort.Ints(dst)
		sum += uint32(dst[0])
		var parsed probeDoc
		xml.Unmarshal(doc, &parsed)
		sum += uint32(len(parsed.Items))
		for r := 0; r < 2; r++ {
			pw.Write(piped)
			io.ReadFull(pr, piped)
		}
		micros := float64(threadCPU()-before) / 1e3
		p.mu.Lock()
		p.samples = append(p.samples, probeSample{at: time.Now(), micros: micros})
		p.mu.Unlock()
	}
}

// probeSink keeps the unit's results alive.
var probeSink uint32

// Stop ends the probe and waits for its thread.
func (p *speedProbe) Stop() {
	close(p.stop)
	<-p.done
}

// speedIndex is the box's speed between from and to relative to the
// reference: probeRefMicros ÷ the median unit time in that window, so
// 0.8 means ordinary code ran at four fifths of reference speed. A
// duration measured in the window is multiplied by it and a rate divided
// by it. A window without a sample (far shorter than any phase the rig
// times) reads 1.
func (p *speedProbe) speedIndex(from, to time.Time) float64 {
	p.mu.Lock()
	defer p.mu.Unlock()
	var micros []float64
	for _, s := range p.samples {
		if !s.at.Before(from) && !s.at.After(to) {
			micros = append(micros, s.micros)
		}
	}
	if len(micros) == 0 {
		return 1
	}
	return probeRefMicros / stats.Median(micros)
}

// threadCPU is the CPU time the calling thread has consumed, in ns.
func threadCPU() int64 {
	const clockThreadCPUTimeID = 3
	var ts syscall.Timespec
	syscall.Syscall(syscall.SYS_CLOCK_GETTIME, clockThreadCPUTimeID, uintptr(unsafe.Pointer(&ts)), 0)
	return ts.Nano()
}

// Metrics the rig scales to the reference speed: durations are
// multiplied by the grid's speed index and rates divided by it. Counts,
// bytes, memory, ratios of two times and the in-process ledger (which
// runs after the grids, beside no probe) are reported as measured.
var (
	scaledDurations = []string{
		"set_latency_p50_ms", "set_latency_p90_ms", "first_start_p50_ms", "cpu_ms_per_job",
		"status_read_p50_us", "status_read_p99_us",
		"gridmaster.cpu_ms_per_job", "gridnode.cpu_ms_per_job", "loadgen.cpu_ms_per_job",
		"loadgen.reader_late_p99_us", "gridsub.wall_ms",
		"scheduler.submit_mean_us", "execution.run_rpc_mean_us", "wsn.notify_mean_us",
		"filesystem.upload_mean_us", "wal.commit_mean_us",
		"phase.submit_ack_ms", "phase.ack_to_dispatch_ms", "phase.staging_ms", "phase.run_ms", "phase.hop_ms",
		"phase.exit_to_completed_ms", "phase.fetch_ms",
	}
	scaledRates = []string{"jobs_per_s", "staged_mib_per_s", "loadgen.traced_jobs_per_s"}
)

// scaleToReference rewrites a grid's timed-phase metrics as they would
// have read at the reference speed. setup_s is scaled by its caller with
// the set-up window's own index.
func scaleToReference(m map[string]float64, speed float64) {
	for _, name := range scaledDurations {
		if v, ok := m[name]; ok {
			m[name] = v * speed
		}
	}
	for _, name := range scaledRates {
		if v, ok := m[name]; ok {
			m[name] = v / speed
		}
	}
}
