package cluster

import (
	"crypto/sha256"
	"encoding/binary"
	"fmt"
	"sort"
)

// Ring is a consistent-hash ring mapping canonical job hashes onto node ids.
// Each node is placed at vnodes pseudo-random points (derived from
// SHA-256(id#i), the same hash family as the job hashes themselves); a key is
// owned by the first node point at or clockwise after the key's point. With
// enough virtual nodes the load split is near-uniform, and adding or removing
// one node moves only ~1/N of the key space — a sweep in flight keeps hitting
// the same owners for every job an unaffected node already computed.
//
// Membership is fixed at construction in this cluster (peers come from
// flags); health-based routing happens above the ring, which always answers
// from the full member set so every node computes identical ownership.
type Ring struct {
	points []ringPoint // sorted by point
	nodes  []string    // sorted ids, for Nodes()
}

type ringPoint struct {
	point uint64
	node  string
}

// vnodes is the virtual-point count per node. It balances lookup cost
// against split uniformity; at 64 points per node a 3-node ring's heaviest
// node carries within ~15% of the mean.
const vnodes = 64

// NewRing builds a ring over the given node ids with vnodes virtual points
// per node.
func NewRing(ids []string) (*Ring, error) {
	if len(ids) == 0 {
		return nil, fmt.Errorf("cluster: ring needs at least one node")
	}
	r := &Ring{}
	seen := make(map[string]bool, len(ids))
	for _, id := range ids {
		if id == "" {
			return nil, fmt.Errorf("cluster: empty node id")
		}
		if seen[id] {
			return nil, fmt.Errorf("cluster: duplicate node id %q", id)
		}
		seen[id] = true
		r.nodes = append(r.nodes, id)
		for i := 0; i < vnodes; i++ {
			r.points = append(r.points, ringPoint{
				point: hashPoint(fmt.Sprintf("%s#%d", id, i)),
				node:  id,
			})
		}
	}
	sort.Strings(r.nodes)
	sort.Slice(r.points, func(i, j int) bool {
		if r.points[i].point != r.points[j].point {
			return r.points[i].point < r.points[j].point
		}
		// Ties (astronomically unlikely) break by id so every node agrees.
		return r.points[i].node < r.points[j].node
	})
	return r, nil
}

// hashPoint maps a string to a ring position.
func hashPoint(s string) uint64 {
	sum := sha256.Sum256([]byte(s))
	return binary.BigEndian.Uint64(sum[:8])
}

// keyPoint maps a canonical job hash (hex SHA-256) to a ring position. The
// job hash is already uniform, but re-hashing keeps keys and nodes in the
// same point family regardless of key format.
func keyPoint(jobHash string) uint64 {
	return hashPoint("key:" + jobHash)
}

// Nodes returns the member ids in sorted order.
func (r *Ring) Nodes() []string { return append([]string(nil), r.nodes...) }

// Owner returns the node owning the given canonical job hash.
func (r *Ring) Owner(jobHash string) string {
	return r.points[r.successor(keyPoint(jobHash))].node
}

// Order returns every distinct node in ring order starting at the job hash's
// owner: Order(h)[0] is the owner, Order(h)[1] the first replica to hedge or
// fail over to, and so on. All members appear exactly once.
func (r *Ring) Order(jobHash string) []string {
	out := make([]string, 0, len(r.nodes))
	seen := make(map[string]bool, len(r.nodes))
	start := r.successor(keyPoint(jobHash))
	for i := 0; i < len(r.points) && len(out) < len(r.nodes); i++ {
		p := r.points[(start+i)%len(r.points)]
		if !seen[p.node] {
			seen[p.node] = true
			out = append(out, p.node)
		}
	}
	return out
}

// successor returns the index of the first ring point at or after pt,
// wrapping at the top.
func (r *Ring) successor(pt uint64) int {
	i := sort.Search(len(r.points), func(i int) bool {
		return r.points[i].point >= pt
	})
	if i == len(r.points) {
		return 0
	}
	return i
}
