package netclient

// Tombstones counts the abandoned request ids, over every live
// connection, whose late response has not arrived yet.
func (c *Client) Tombstones() int {
	n := 0
	for _, slot := range c.slots {
		if cc := slot.cur.Load(); cc != nil {
			cc.pmu.Lock()
			n += len(cc.abandoned)
			cc.pmu.Unlock()
		}
	}
	return n
}
