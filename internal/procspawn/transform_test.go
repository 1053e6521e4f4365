package procspawn

import (
	"bytes"
	"fmt"
	"math/rand"
	"sort"
	"strconv"
	"strings"
	"testing"
)

// referenceTransforms are the transform bodies as first written: a byte
// loop for reverse, a string round trip for upper and lower. Every entry
// of transforms must produce what its reference produces, on any input.
var referenceTransforms = map[string]func([]byte) []byte{
	"copy":  func(b []byte) []byte { return b },
	"upper": func(b []byte) []byte { return []byte(strings.ToUpper(string(b))) },
	"lower": func(b []byte) []byte { return []byte(strings.ToLower(string(b))) },
	"reverse": func(b []byte) []byte {
		out := make([]byte, len(b))
		for i, c := range b {
			out[len(b)-1-i] = c
		}
		return out
	},
	// count emits "<lines> <words> <bytes>" like wc.
	"count": func(b []byte) []byte {
		lines := strings.Count(string(b), "\n")
		words := len(strings.Fields(string(b)))
		return []byte(fmt.Sprintf("%d %d %d", lines, words, len(b)))
	},
	// sum adds whitespace-separated integers, ignoring other tokens.
	"sum": func(b []byte) []byte {
		var total int64
		for _, f := range strings.Fields(string(b)) {
			if v, err := strconv.ParseInt(f, 10, 64); err == nil {
				total += v
			}
		}
		return []byte(strconv.FormatInt(total, 10))
	},
	// sort orders lines lexicographically.
	"sort": func(b []byte) []byte {
		lines := strings.Split(strings.TrimRight(string(b), "\n"), "\n")
		sort.Strings(lines)
		return []byte(strings.Join(lines, "\n") + "\n")
	},
}

// seededBytes returns n bytes from a fixed seed: any byte value, with a
// newline, a space or a digit often enough for count, sum and sort to
// find lines, words and numbers.
func seededBytes(n int, seed int64) []byte {
	r := rand.New(rand.NewSource(seed))
	b := make([]byte, n)
	for i := range b {
		switch v := r.Intn(16); {
		case v == 0:
			b[i] = '\n'
		case v == 1:
			b[i] = ' '
		case v < 5:
			b[i] = byte('0' + r.Intn(10))
		default:
			b[i] = byte(r.Intn(256))
		}
	}
	return b
}

// asciiText returns n bytes of mixed-case ASCII words and lines, the
// input upper and lower meet on their fast path.
func asciiText(n int) []byte {
	const text = "Grid Job 42 stages Its Input\n"
	return bytes.Repeat([]byte(text), n/len(text)+1)[:n]
}

// FuzzTransforms holds every transform to its reference, and to leaving
// its input alone: the input a job transforms is a stored vfs.Content
// other directories share. The seeds cover reverse's word loop and tail
// at every length around a word, text beyond ASCII, and invalid UTF-8.
func FuzzTransforms(f *testing.F) {
	for _, n := range []int{0, 1, 7, 8, 9, 15, 16, 17, 4099} {
		f.Add(seededBytes(n, int64(n)))
	}
	f.Add(seededBytes(512<<10, 7))
	f.Add([]byte("Grüße aus Charlottesville: 日本 ÉTAPE ǅ ß İı ﬃ\n3 −4 5\n"))
	f.Add([]byte("ok \xff\xfe 12 \xc3 abc\n\xe2\x82 Z \xed\xa0\x80 9\n"))
	for name := range transforms {
		if referenceTransforms[name] == nil {
			f.Fatalf("transform %q has no reference", name)
		}
	}
	f.Fuzz(func(t *testing.T, in []byte) {
		for name, transform := range transforms {
			b := bytes.Clone(in)
			got := transform(b)
			if !bytes.Equal(b, in) {
				t.Fatalf("%s wrote its input", name)
			}
			if want := referenceTransforms[name](bytes.Clone(in)); !bytes.Equal(got, want) {
				at := 0
				for at < len(got) && at < len(want) && got[at] == want[at] {
					at++
				}
				t.Fatalf("%s of %d bytes: %d bytes out, want %d; first difference at byte %d",
					name, len(in), len(got), len(want), at)
			}
		}
	})
}

// payloads512k are data512k-sized inputs for the transforms that copy
// their input whole: seeded bytes for reverse, and for upper and lower
// the ASCII text of their fast path.
var payloads512k = []struct {
	name string
	in   []byte
}{
	{"reverse", seededBytes(512<<10, 7)},
	{"upper", asciiText(512 << 10)},
	{"lower", asciiText(512 << 10)},
}

// TestTransformsAllocateOnce pins one allocation per call: the output.
func TestTransformsAllocateOnce(t *testing.T) {
	for _, tc := range payloads512k {
		transform := transforms[tc.name]
		if allocs := testing.AllocsPerRun(20, func() { transform(tc.in) }); allocs != 1 {
			t.Errorf("%s of 512 KiB: %v allocations a call, want 1", tc.name, allocs)
		}
	}
}

// transformSink keeps BenchmarkTransform's calls from being optimised away.
var transformSink []byte

// BenchmarkTransform times the transforms a job applies to a data512k
// payload, output allocation included.
func BenchmarkTransform(b *testing.B) {
	for _, tc := range payloads512k {
		transform := transforms[tc.name]
		b.Run(tc.name+"/512KiB", func(b *testing.B) {
			b.SetBytes(int64(len(tc.in)))
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				transformSink = transform(tc.in)
			}
		})
	}
}
