package scheduler

// forgetAll is a crash as the registry sees it: a new process remembers no
// set, and the dead one journals nothing more — a write of its still in
// flight (a started event's row, behind the exit that completed the set)
// must not land on the document a drill rewinds next. With live(topic) it
// is how tests reach the scheduler's memory.
func (g *registry) forgetAll() {
	g.mu.Lock()
	dead := g.sets
	g.sets = make(map[string]held)
	g.mu.Unlock()
	for _, h := range dead {
		if h.run != nil {
			h.run.mu.Lock()
			h.run.st.parked = true
			h.run.mu.Unlock()
		}
	}
}

// count is how many sets are held, parked or live.
func (g *registry) count() int { return len(g.all()) }
