package rig

import (
	"bufio"
	"bytes"
	"fmt"
	"os"
	"strconv"
	"strings"
	"time"
)

// clockTick is the kernel's USER_HZ: the unit of utime and stime in
// /proc/<pid>/stat. It is 100 on every Linux architecture Go supports.
const clockTick = 10 * time.Millisecond

// ProcStat is what the benchmark reads about a process from /proc.
type ProcStat struct {
	CPU    time.Duration // user + system time consumed so far
	HWMKiB int64         // peak resident set size (VmHWM)
}

// ReadProcStat samples /proc/<pid>/stat and /proc/<pid>/status.
func ReadProcStat(pid int) (ProcStat, error) {
	stat, err := os.ReadFile(fmt.Sprintf("/proc/%d/stat", pid))
	if err != nil {
		return ProcStat{}, err
	}
	cpu, err := ParseStatCPU(stat)
	if err != nil {
		return ProcStat{}, err
	}
	status, err := os.ReadFile(fmt.Sprintf("/proc/%d/status", pid))
	if err != nil {
		return ProcStat{}, err
	}
	hwm, err := ParseStatusHWM(status)
	if err != nil {
		return ProcStat{}, err
	}
	return ProcStat{CPU: cpu, HWMKiB: hwm}, nil
}

// ParseStatCPU extracts utime + stime from the contents of
// /proc/<pid>/stat. The command name (field 2) is parenthesised and may
// itself hold spaces and parentheses, so fields are counted from the
// last ')'.
func ParseStatCPU(stat []byte) (time.Duration, error) {
	end := bytes.LastIndexByte(stat, ')')
	if end < 0 {
		return 0, fmt.Errorf("rig: /proc stat has no command field: %q", stat)
	}
	fields := strings.Fields(string(stat[end+1:]))
	// After the command come state (field 3) …; utime and stime are
	// fields 14 and 15, i.e. indexes 11 and 12 here.
	if len(fields) < 13 {
		return 0, fmt.Errorf("rig: /proc stat has %d fields after the command, want at least 13", len(fields))
	}
	utime, err := strconv.ParseInt(fields[11], 10, 64)
	if err != nil {
		return 0, fmt.Errorf("rig: /proc stat utime: %w", err)
	}
	stime, err := strconv.ParseInt(fields[12], 10, 64)
	if err != nil {
		return 0, fmt.Errorf("rig: /proc stat stime: %w", err)
	}
	return time.Duration(utime+stime) * clockTick, nil
}

// ParseStatusHWM extracts VmHWM, in KiB, from the contents of
// /proc/<pid>/status.
func ParseStatusHWM(status []byte) (int64, error) {
	sc := bufio.NewScanner(bytes.NewReader(status))
	for sc.Scan() {
		rest, ok := strings.CutPrefix(sc.Text(), "VmHWM:")
		if !ok {
			continue
		}
		fields := strings.Fields(rest)
		if len(fields) != 2 || fields[1] != "kB" {
			return 0, fmt.Errorf("rig: unexpected VmHWM line %q", sc.Text())
		}
		return strconv.ParseInt(fields[0], 10, 64)
	}
	return 0, fmt.Errorf("rig: /proc status has no VmHWM line")
}
