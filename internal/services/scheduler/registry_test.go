package scheduler

// forgetAll is a crash as the registry sees it: a new process remembers no
// set, and the dead one does nothing more — it dispatches nothing, and a
// write of its still in flight (a started event's row, behind the exit that
// completed the set) must not land on the document a drill rewinds next.
// With live(topic) it is how tests reach the scheduler's memory.
func (g *registry) forgetAll() {
	g.mu.Lock()
	dead := g.sets
	g.sets = make(map[string]*run)
	g.mu.Unlock()
	for _, r := range dead {
		r.forgotten.Store(true)
		r.mu.Lock()
		// Its effects are never carried out: all it still hears is history.
		r.st.terminate(SetCancelled, "", new(effects))
		r.mu.Unlock()
	}
}

// count is how many sets are held.
func (g *registry) count() int { return len(g.all()) }
