package fleet

import (
	"reflect"
	"testing"
)

// FuzzMembershipMerge checks that the gossip merge is a join: over
// arbitrary row batches, merging them in any order or grouping yields
// the same table, and merging anything already folded in again changes
// nothing and reports false. Rows come from a small alphabet of ids,
// URLs and epochs so that the fuzzer mostly produces conflicts, and
// include the malformed rows (empty id, epoch 0) merge must skip.
func FuzzMembershipMerge(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{0x04, 0x01, 0x00, 0x05, 0x02, 0x01, 0x06, 0x03, 0x02})
	f.Add([]byte{0x04, 0x81, 0x00, 0x05, 0x01, 0x01, 0x06, 0x81, 0x01, 0x00, 0x00, 0x00})
	ids := []string{"", "a", "b", "c", "d"}
	urls := []string{"http://x", "http://y", "http://z"}
	f.Fuzz(func(t *testing.T, data []byte) {
		var batches [3][]Member
		for i := 0; i+2 < len(data); i += 3 {
			row := Member{
				Peer: Peer{
					ID:  ids[int(data[i]>>2)%len(ids)],
					URL: urls[int(data[i+2])%len(urls)],
				},
				Epoch: uint64(data[i+1]&0x7f) % 4,
				Left:  data[i+1]&0x80 != 0,
			}
			b := int(data[i]&3) % len(batches)
			batches[b] = append(batches[b], row)
		}
		a, b, c := batches[0], batches[1], batches[2]
		table := func(groups ...[]Member) *membership {
			m := newMembership("a", nil)
			for _, g := range groups {
				m.merge(g)
			}
			return m
		}
		want := table(a, b, c).snapshot()

		// Commutative: every order of the three batches.
		for _, order := range [][3][]Member{{a, c, b}, {b, a, c}, {b, c, a}, {c, a, b}, {c, b, a}} {
			if got := table(order[0], order[1], order[2]).snapshot(); !reflect.DeepEqual(got, want) {
				t.Fatalf("merge order changed the table:\ngot  %+v\nwant %+v", got, want)
			}
		}
		// Associative: (a·b)·c == a·(b·c), folding a merged table's rows.
		bc := table(b, c).snapshot()
		if got := table(a, bc).snapshot(); !reflect.DeepEqual(got, want) {
			t.Fatalf("grouping changed the table:\ngot  %+v\nwant %+v", got, want)
		}
		ab := table(a, b).snapshot()
		if got := table(ab, c).snapshot(); !reflect.DeepEqual(got, want) {
			t.Fatalf("grouping changed the table:\ngot  %+v\nwant %+v", got, want)
		}
		// Idempotent: nothing already merged changes the table again.
		m := table(a, b, c)
		version := m.currentVersion()
		for _, g := range [][]Member{a, b, c, want} {
			if m.merge(g) {
				t.Fatalf("re-merging %+v reported a change", g)
			}
		}
		if got := m.snapshot(); !reflect.DeepEqual(got, want) || m.currentVersion() != version {
			t.Fatalf("re-merge changed the table:\ngot  %+v\nwant %+v", got, want)
		}
	})
}
