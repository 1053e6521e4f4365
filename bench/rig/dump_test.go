package rig

import (
	"os"
	"testing"
	"time"
)

// The golden file is the stderr of a real `gridmaster -metrics` that ran
// the gridsub-demo job set once and was stopped with SIGINT: log lines
// first, then the dump.
func TestParseDumpGolden(t *testing.T) {
	log, err := os.ReadFile("testdata/gridmaster-metrics.golden.log")
	if err != nil {
		t.Fatal(err)
	}
	dump, err := ParseDump(log)
	if err != nil {
		t.Fatal(err)
	}
	if len(dump) != 8 {
		t.Errorf("parsed %d rows, want 8: %v", len(dump), dump)
	}
	submit := dump.Row("/SchedulerService", "Submit")
	if submit.Calls != 1 || submit.Faults != 0 || submit.Mean != 404001*time.Nanosecond || submit.Min != submit.Max {
		t.Errorf("Submit row %+v", submit)
	}
	notify := dump.Row("/NotificationBroker", "Notify")
	if notify.Calls != 32 || notify.Mean != 742996*time.Nanosecond || notify.Max != 3178094*time.Nanosecond {
		t.Errorf("broker Notify row %+v", notify)
	}
	if got := notify.Total(); got != 32*742996*time.Nanosecond {
		t.Errorf("Notify total %v", got)
	}
	if got := dump.Row("/NotificationBroker", "GetCurrentMessage"); got.Calls != 2 || got.Faults != 2 {
		t.Errorf("GetCurrentMessage row %+v", got)
	}
	calls, _ := dump.Sum(func(DumpKey) bool { return true })
	if calls != 2+12+2+32+6+38+1+7 {
		t.Errorf("dump counts %d calls in all", calls)
	}
	if got := dump.Row("/nowhere", "Submit"); got.Calls != 0 {
		t.Errorf("missing row reads %+v", got)
	}
}

func TestParseDumpRejectsLogsWithoutADump(t *testing.T) {
	if _, err := ParseDump([]byte("2026/09/27 20:44:55 gridmaster up at http://127.0.0.1:18700\n")); err == nil {
		t.Error("a log without a dump parsed")
	}
	if _, err := ParseDump([]byte("pipeline: no calls recorded\n")); err == nil {
		t.Error("an empty dump parsed")
	}
}

func TestParseDumpRowWithoutAPathSlashInAction(t *testing.T) {
	dump, err := ParseDump([]byte("/wal commit\n  calls=10 faults=0 min=50µs mean=1.5ms max=4ms\n  <=3ms      9\n  <=10ms     1\n"))
	if err != nil {
		t.Fatal(err)
	}
	if got := dump.Row("/wal", "commit"); got.Calls != 10 || got.Mean != 1500*time.Microsecond {
		t.Errorf("wal commit row %+v", got)
	}
}
