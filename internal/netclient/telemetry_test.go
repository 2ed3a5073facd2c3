package netclient_test

import (
	"errors"
	"strings"
	"testing"
	"time"

	"tensordimm/internal/netclient"
)

// TestEmbedVariantsAndRestore exercises the convenience read paths and
// the snapshot-install client surface against the echo backend: Embed
// (fresh destination), StartEmbedBudget (explicit deadline budget on the
// wire), and Restore — whose client-side validation rejects malformed
// chunks before any round trip, and whose well-formed chunk surfaces the
// echo backend's lack of the optional RestoreBackend extension as a
// *ServerError.
func TestEmbedVariantsAndRestore(t *testing.T) {
	_, addr := startEcho(t)
	cl, err := netclient.Dial(addr, netclient.Config{})
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	g := cl.Geometry()

	rows := make([][]int, g.Tables)
	for tb := range rows {
		rows[tb] = []int{7, 8, 21, 22}[:2*g.Reduction]
	}
	check := func(out []float32) {
		t.Helper()
		if len(out) != 2*g.Tables*g.Dim {
			t.Fatalf("embed returned %d floats, want %d", len(out), 2*g.Tables*g.Dim)
		}
		for s := 0; s < 2; s++ {
			for tb := 0; tb < g.Tables; tb++ {
				for k := 0; k < g.Dim; k++ {
					want := float32(rows[tb][s*g.Reduction] + k)
					if got := out[s*g.Tables*g.Dim+tb*g.Dim+k]; got != want {
						t.Fatalf("sample %d table %d elem %d = %g, want %g", s, tb, k, got, want)
					}
				}
			}
		}
	}

	out, err := cl.EmbedInto(nil, rows, 2)
	if err != nil {
		t.Fatal(err)
	}
	check(out)

	ca, err := cl.StartEmbedBudget(nil, rows, 2, time.Second)
	if err != nil {
		t.Fatal(err)
	}
	if err := <-ca.Done(); err != nil {
		t.Fatal(err)
	}
	check(ca.Dst())
	cl.Finish(ca)

	if n := cl.MaxRestoreRows(); n < 1 {
		t.Fatalf("MaxRestoreRows = %d, want >= 1", n)
	}
	vals := make([]float32, g.Dim)
	if _, err := cl.Restore(1, false, g.Tables, []int{0}, vals); err == nil {
		t.Fatal("Restore accepted an out-of-range table")
	}
	if _, err := cl.Restore(1, false, 0, nil, nil); err == nil {
		t.Fatal("Restore accepted an empty chunk")
	}
	if _, err := cl.Restore(1, false, 0, []int{-1}, vals); err == nil {
		t.Fatal("Restore accepted a negative row index")
	}
	if _, err := cl.Restore(1, false, 0, []int{0}, vals[:1]); err == nil {
		t.Fatal("Restore accepted a value slice shorter than rows*dim")
	}
	_, err = cl.Restore(1, true, 0, []int{3}, vals)
	var se *netclient.ServerError
	if !errors.As(err, &se) {
		t.Fatalf("Restore against a non-RestoreBackend returned %v, want *ServerError", err)
	}
	if !strings.Contains(se.Error(), "server") {
		t.Fatalf("ServerError.Error() = %q, want it to name the server", se.Error())
	}

	de := &netclient.DeadlineError{Budget: time.Millisecond}
	if !strings.Contains(de.Error(), "1ms") {
		t.Fatalf("DeadlineError.Error() = %q, want it to carry the budget", de.Error())
	}
}
