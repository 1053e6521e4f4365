package rig

import (
	"os"
	"testing"
	"time"
)

func TestParseStatCPU(t *testing.T) {
	// A command name with spaces and parentheses must not shift fields.
	stat := []byte("19292 (grid (master) x) R 19285 19292 19285 0 -1 4194304 82 0 0 0 123 45 6 7 20 0 1 0 252352 2703360 306 18446744073709551615 0 0 0 0 0 0 0 0 0 0 0 0 17 1 0 0 0 0 0\n")
	got, err := ParseStatCPU(stat)
	if err != nil {
		t.Fatal(err)
	}
	if want := (123 + 45) * 10 * time.Millisecond; got != want {
		t.Errorf("cpu %v, want %v", got, want)
	}
	for _, bad := range []string{"", "1 (x) R 2 3", "1 (x) R 1 2 3 4 5 6 7 8 9 10 eleven 12 13"} {
		if _, err := ParseStatCPU([]byte(bad)); err == nil {
			t.Errorf("ParseStatCPU(%q) succeeded", bad)
		}
	}
}

func TestParseStatusHWM(t *testing.T) {
	status := []byte("Name:\tgridmaster\nVmPeak:\t 1234 kB\nVmHWM:\t    1660 kB\nVmRSS:\t    1500 kB\n")
	got, err := ParseStatusHWM(status)
	if err != nil || got != 1660 {
		t.Fatalf("VmHWM = %d, %v; want 1660", got, err)
	}
	if _, err := ParseStatusHWM([]byte("Name:\tx\n")); err == nil {
		t.Error("a status without VmHWM parsed")
	}
	if _, err := ParseStatusHWM([]byte("VmHWM:\t12 MB\n")); err == nil {
		t.Error("a VmHWM in another unit parsed")
	}
}

func TestReadProcStatOfSelf(t *testing.T) {
	ps, err := ReadProcStat(os.Getpid())
	if err != nil {
		t.Fatal(err)
	}
	if ps.HWMKiB <= 0 {
		t.Errorf("own VmHWM reads %d KiB", ps.HWMKiB)
	}
}
