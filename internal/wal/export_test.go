package wal

// Append enqueues recs and waits for their durability: the common
// single-call commit path.
func (l *Log) Append(recs ...Record) error {
	var last uint64
	for _, rec := range recs {
		seq, err := l.Enqueue(rec)
		if err != nil {
			return err
		}
		last = seq
	}
	if last == 0 {
		return nil
	}
	return l.WaitDurable(last)
}
