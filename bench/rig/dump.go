package rig

import (
	"bufio"
	"bytes"
	"fmt"
	"strings"
	"time"
)

// DumpKey names one row of a daemon's -metrics dump.
type DumpKey struct {
	Path   string
	Action string
}

// DumpRow is the "calls= faults= min= mean= max=" line of one row.
type DumpRow struct {
	Calls  int64
	Faults int64
	Min    time.Duration
	Mean   time.Duration
	Max    time.Duration
}

// Total is the time the row's calls took together.
func (r DumpRow) Total() time.Duration { return r.Mean * time.Duration(r.Calls) }

// Dump is a parsed -metrics dump.
type Dump map[DumpKey]DumpRow

// ParseDump reads the pipeline.Metrics table a daemon prints to stderr
// on shutdown out of its whole log: a row is a "<path> <action>" line
// followed by an indented "calls=…" line; log lines around the table and
// the histogram lines inside it are skipped. A log with no rows is an
// error — the daemon was not started with -metrics or did not get to
// print.
func ParseDump(log []byte) (Dump, error) {
	dump := make(Dump)
	sc := bufio.NewScanner(bytes.NewReader(log))
	sc.Buffer(make([]byte, 0, 64<<10), 1<<20)
	var pending *DumpKey
	for sc.Scan() {
		line := sc.Text()
		if pending != nil && strings.HasPrefix(line, "  calls=") {
			row, err := parseDumpRow(line)
			if err != nil {
				return nil, fmt.Errorf("rig: metrics row %s %s: %w", pending.Path, pending.Action, err)
			}
			dump[*pending] = row
			pending = nil
			continue
		}
		pending = nil
		if strings.HasPrefix(line, "/") {
			if path, action, ok := strings.Cut(line, " "); ok && !strings.Contains(action, " ") {
				pending = &DumpKey{Path: path, Action: action}
			}
		}
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	if len(dump) == 0 {
		return nil, fmt.Errorf("rig: log holds no -metrics dump")
	}
	return dump, nil
}

func parseDumpRow(line string) (DumpRow, error) {
	var row DumpRow
	var min, mean, max string
	if _, err := fmt.Sscanf(strings.TrimSpace(line), "calls=%d faults=%d min=%s mean=%s max=%s",
		&row.Calls, &row.Faults, &min, &mean, &max); err != nil {
		return row, err
	}
	var err error
	if row.Min, err = time.ParseDuration(min); err != nil {
		return row, err
	}
	if row.Mean, err = time.ParseDuration(mean); err != nil {
		return row, err
	}
	if row.Max, err = time.ParseDuration(max); err != nil {
		return row, err
	}
	return row, nil
}

// Sum adds up the rows selected by match.
func (d Dump) Sum(match func(DumpKey) bool) (calls int64, total time.Duration) {
	for k, r := range d {
		if match(k) {
			calls += r.Calls
			total += r.Total()
		}
	}
	return calls, total
}

// Row returns the row for (path, action-suffix): WS-* action URIs are
// long, so rows are addressed by the last path segment of the action.
func (d Dump) Row(path, actionSuffix string) DumpRow {
	var out DumpRow
	for k, r := range d {
		if k.Path == path && (k.Action == actionSuffix || strings.HasSuffix(k.Action, "/"+actionSuffix)) {
			out = r
		}
	}
	return out
}
