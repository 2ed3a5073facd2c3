package faultnet

// Live reports how many wrapped connections are currently open.
func (in *Injector) Live() int {
	in.mu.Lock()
	defer in.mu.Unlock()
	return len(in.conns)
}
