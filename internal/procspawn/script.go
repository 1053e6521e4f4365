// Package procspawn is the ProcSpawn "Windows service": the component
// WSRF.NET uses "to start a new process as a particular user" (paper
// §3), plus the Processor Utilization monitor that notifies the Node
// Info Service when load changes by more than a configurable amount
// (paper §4.4).
//
// Real Windows binaries are a hardware/platform gate, so processes are
// simulated: an executable is a small job script (shipped through the
// File System Service like any other file) that the spawner interprets
// — reading staged inputs, burning simulated CPU at the machine's clock
// speed, writing outputs, and exiting with a code. The ES↔ProcSpawn
// protocol (credential-checked spawn, kill, exit-code callback, CPU-time
// accounting) is exactly the paper's.
package procspawn

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"math/bits"
	"sort"
	"strconv"
	"strings"
)

// Shebang marks a file as a runnable job script.
const Shebang = "#uvacg-job"

// opKind enumerates script operations.
type opKind int

const (
	opRead opKind = iota
	opCompute
	opTransform
	opWrite
	opAppend
	opExit
)

// op is one parsed script instruction.
type op struct {
	kind opKind
	// read: arg1 = input file
	// compute: n = work units
	// transform: arg1 = in file, arg2 = out file, arg3 = transform name
	// write: arg1 = out file, arg2 = literal content
	// append: arg1 = out file, arg2 = source file
	// exit: n = exit code
	arg1, arg2, arg3 string
	n                int64
}

// Script is a parsed job program.
type Script struct {
	ops []op
}

// ParseScript parses executable content. The first non-blank line must
// be the shebang.
func ParseScript(content []byte) (*Script, error) {
	lines := strings.Split(string(content), "\n")
	s := &Script{}
	sawShebang := false
	for lineNo, raw := range lines {
		line := strings.TrimSpace(raw)
		if line == "" {
			continue
		}
		if !sawShebang {
			if line != Shebang {
				return nil, fmt.Errorf("procspawn: not a job script (missing %q shebang)", Shebang)
			}
			sawShebang = true
			continue
		}
		if strings.HasPrefix(line, "#") {
			continue
		}
		fields := strings.Fields(line)
		o, err := parseOp(fields)
		if err != nil {
			return nil, fmt.Errorf("procspawn: line %d: %w", lineNo+1, err)
		}
		s.ops = append(s.ops, o)
	}
	if !sawShebang {
		return nil, fmt.Errorf("procspawn: empty executable")
	}
	return s, nil
}

func parseOp(fields []string) (op, error) {
	switch fields[0] {
	case "read":
		if len(fields) != 2 {
			return op{}, fmt.Errorf("read takes 1 argument")
		}
		return op{kind: opRead, arg1: fields[1]}, nil
	case "compute":
		if len(fields) != 2 {
			return op{}, fmt.Errorf("compute takes 1 argument")
		}
		n, err := strconv.ParseInt(fields[1], 10, 64)
		if err != nil || n < 0 {
			return op{}, fmt.Errorf("bad compute units %q", fields[1])
		}
		return op{kind: opCompute, n: n}, nil
	case "transform":
		if len(fields) != 4 {
			return op{}, fmt.Errorf("transform takes 3 arguments (in out op)")
		}
		if _, ok := transforms[fields[3]]; !ok {
			return op{}, fmt.Errorf("unknown transform %q", fields[3])
		}
		return op{kind: opTransform, arg1: fields[1], arg2: fields[2], arg3: fields[3]}, nil
	case "write":
		if len(fields) < 2 {
			return op{}, fmt.Errorf("write takes at least 1 argument")
		}
		// The literal supports \n and \t escapes so jobs can emit
		// multi-line records from a single-line instruction.
		literal := strings.Join(fields[2:], " ")
		literal = strings.ReplaceAll(literal, `\n`, "\n")
		literal = strings.ReplaceAll(literal, `\t`, "\t")
		return op{kind: opWrite, arg1: fields[1], arg2: literal}, nil
	case "append":
		if len(fields) != 3 {
			return op{}, fmt.Errorf("append takes 2 arguments (out src)")
		}
		return op{kind: opAppend, arg1: fields[1], arg2: fields[2]}, nil
	case "exit":
		if len(fields) != 2 {
			return op{}, fmt.Errorf("exit takes 1 argument")
		}
		n, err := strconv.ParseInt(fields[1], 10, 32)
		if err != nil || n < 0 {
			return op{}, fmt.Errorf("bad exit code %q", fields[1])
		}
		return op{kind: opExit, n: n}, nil
	}
	return op{}, fmt.Errorf("unknown instruction %q", fields[0])
}

// transforms are the data operations a job can apply to a staged input
// to produce an output — enough to build multi-stage pipelines whose
// stages genuinely consume each other's bytes. The input is a stored
// vfs.Content other directories share, so no transform writes it;
// reverse, upper and lower make one pass and one allocation.
var transforms = map[string]func([]byte) []byte{
	"copy":    func(b []byte) []byte { return b },
	"upper":   bytes.ToUpper,
	"lower":   bytes.ToLower,
	"reverse": reverse,
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

// reverse returns b's bytes in reverse order in one fresh slice. It moves
// a word at a time: the word at offset i, byte-swapped, is the word that
// ends len(b)-i bytes from the far end. The len(b)%8 bytes left over at
// the end of b open the output and are moved one at a time.
func reverse(b []byte) []byte {
	n := len(b)
	out := make([]byte, n)
	i := 0
	for ; i+8 <= n; i += 8 {
		binary.LittleEndian.PutUint64(out[n-i-8:], bits.ReverseBytes64(binary.LittleEndian.Uint64(b[i:])))
	}
	for ; i < n; i++ {
		out[n-1-i] = b[i]
	}
	return out
}

// BuildScript assembles script text from instruction lines, prepending
// the shebang — the helper job-set authors use.
func BuildScript(instructions ...string) []byte {
	var b strings.Builder
	b.WriteString(Shebang)
	b.WriteByte('\n')
	for _, in := range instructions {
		b.WriteString(in)
		b.WriteByte('\n')
	}
	return []byte(b.String())
}
