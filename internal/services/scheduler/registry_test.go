package scheduler

// forgetAll is a crash as the registry sees it: a new process remembers no
// set. With live(topic) it is how tests reach the scheduler's memory.
func (g *registry) forgetAll() {
	g.mu.Lock()
	g.sets = make(map[string]held)
	g.mu.Unlock()
}

// count is how many sets are held, parked or live.
func (g *registry) count() int { return len(g.all()) }
