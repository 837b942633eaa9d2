package cluster

import (
	"fmt"
	"net"
	"net/http"
	"sync"
	"time"

	"repro/internal/server"
)

// MemberSetup is what StartLoopback builds one member from. StartLoopback
// fills in Config.SelfID and Config.Peers.
type MemberSetup struct {
	Options server.Options
	Config  Config
	// Wrap, when set, wraps the member's handler, e.g. in a fault injector
	// on its side of the wire.
	Wrap func(http.Handler) http.Handler
}

// Member is one member of a loopback fleet: its scheduler, its cluster
// layer, and the HTTP server that serves the node's handler at URL.
type Member struct {
	ID     string
	URL    string
	Server *server.Server
	Node   *Node

	hs   *http.Server
	stop sync.Once
}

// CloseHTTP closes the member's listener and connections only, as a killed
// process leaves them: peers find nothing at URL, while the node and the
// scheduler keep their state for inspection.
func (m *Member) CloseHTTP() { m.hs.Close() }

// Stop closes the member's HTTP server, node and scheduler. It is safe to
// call more than once.
func (m *Member) Stop() {
	m.stop.Do(func() {
		m.hs.Close()
		m.Node.Close()
		m.Server.Shutdown(5 * time.Second)
	})
}

// Fleet is a loopback fleet; element i is member n<i+1>.
type Fleet []*Member

// Stop stops every member. It is safe to call more than once.
func (f Fleet) Stop() {
	for _, m := range f {
		m.Stop()
	}
}

// StartLoopback boots an n-member fleet in this process, members n1..nN,
// each serving its Node.Handler() over real HTTP on a 127.0.0.1 port. Every
// node needs the whole membership's URLs, so all n listeners are bound
// before any node is built. setup returns member i's setup given its id and
// listen address (host:port). A boot that fails part-way stops what it
// started.
func StartLoopback(n int, setup func(i int, id, addr string) MemberSetup) (Fleet, error) {
	lns := make([]net.Listener, 0, n)
	closeFrom := func(i int) {
		for _, ln := range lns[i:] {
			ln.Close()
		}
	}
	peers := make([]Peer, n)
	for i := range peers {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			closeFrom(0)
			return nil, err
		}
		lns = append(lns, ln)
		peers[i] = Peer{ID: fmt.Sprintf("n%d", i+1), URL: "http://" + ln.Addr().String()}
	}
	fleet := make(Fleet, 0, n)
	for i, ln := range lns {
		id := peers[i].ID
		ms := setup(i, id, ln.Addr().String())
		ms.Config.SelfID, ms.Config.Peers = id, peers
		srv := server.New(ms.Options)
		node, err := NewNode(srv, ms.Config)
		if err != nil {
			srv.Shutdown(time.Second)
			fleet.Stop()
			closeFrom(i)
			return nil, fmt.Errorf("member %s: %w", id, err)
		}
		h := node.Handler()
		if ms.Wrap != nil {
			h = ms.Wrap(h)
		}
		m := &Member{ID: id, URL: peers[i].URL, Server: srv, Node: node, hs: &http.Server{Handler: h}}
		go m.hs.Serve(ln) //nolint:errcheck // Serve returns on Close
		fleet = append(fleet, m)
	}
	return fleet, nil
}
