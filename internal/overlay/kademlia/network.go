package kademlia

import (
	"errors"
	"sort"
	"time"

	"repro/internal/netmodel"
	"repro/internal/overlay"
	"repro/internal/sim"
)

// Config parameterizes a simulated Kademlia deployment. Two presets capture
// the deployments compared by Jiménez et al.: KADConfig (eMule KAD: adaptive
// short timeouts, mostly reachable peers) and MDHTConfig (BitTorrent
// Mainline: long conservative timeouts, a large unresponsive population
// behind NATs).
type Config struct {
	// K is the bucket size and result-set width (default 16).
	K int
	// Alpha is the lookup parallelism (default 3).
	Alpha int
	// RPCTimeout is how long a node waits before declaring a query dead.
	RPCTimeout time.Duration
	// UnresponsiveFrac is the fraction of nodes that receive but never
	// answer RPCs (NATed/firewalled peers).
	UnresponsiveFrac float64
}

func (c Config) withDefaults() Config {
	if c.K <= 0 {
		c.K = 16
	}
	if c.Alpha <= 0 {
		c.Alpha = 3
	}
	if c.RPCTimeout <= 0 {
		c.RPCTimeout = 2 * time.Second
	}
	if c.UnresponsiveFrac < 0 {
		c.UnresponsiveFrac = 0
	}
	if c.UnresponsiveFrac > 1 {
		c.UnresponsiveFrac = 1
	}
	return c
}

// reqSize is a FIND_NODE request's size in bytes; a reply is sized for K
// contacts (see rpc.send).
const reqSize = 60

// KADConfig models eMule KAD as measured by Jiménez et al.: small
// unresponsive population and tight timeouts, yielding lookups within
// seconds.
func KADConfig() Config {
	return Config{
		K:                10,
		Alpha:            3,
		RPCTimeout:       2 * time.Second,
		UnresponsiveFrac: 0.15,
	}
}

// MDHTConfig models the BitTorrent Mainline DHT: a large share of
// routing-table entries point at unreachable (NATed) peers, lookups proceed
// serially, and clients wait long, conservative timeouts — yielding median
// lookups around a minute (Jiménez et al. measured ~60 s medians).
func MDHTConfig() Config {
	return Config{
		K:                8,
		Alpha:            1,
		RPCTimeout:       8 * time.Second,
		UnresponsiveFrac: 0.45,
	}
}

// Node is one Kademlia participant.
type Node struct {
	ID   overlay.ID
	Addr netmodel.NodeID

	table      *Table
	responsive bool
	malicious  bool
	// poison, when set on a malicious node, fabricates FIND_NODE replies.
	poison func(target overlay.ID) []Contact
	online bool
}

// Online reports whether the node is currently attached to the network.
func (n *Node) Online() bool { return n.online }

// Responsive reports whether the node answers RPCs.
func (n *Node) Responsive() bool { return n.responsive }

// Malicious reports whether the node is attacker-controlled.
func (n *Node) Malicious() bool { return n.malicious }

// Table exposes the node's routing table (primarily for tests and attack
// measurements).
func (n *Node) Table() *Table { return n.table }

// Network is a simulated Kademlia deployment over a netmodel.Net, on the
// kernel the net was built on.
type Network struct {
	sim *sim.Sim
	net *netmodel.Net
	cfg Config
	rng *sim.RNG

	nodes  []*Node
	byAddr map[netmodel.NodeID]*Node
	pool   pool
}

// pool holds the network's recycled lookups and queries.
type pool struct {
	lookups []*lookup
	rpcs    []*rpc
	seed    []Contact // Lookup's scratch: the origin's closest contacts
}

func (nw *Network) newLookup() *lookup {
	p := &nw.pool
	if last := len(p.lookups) - 1; last >= 0 {
		l := p.lookups[last]
		p.lookups = p.lookups[:last]
		return l
	}
	// Presized to what the seen set holds before it first grows, so a new
	// lookup does not regrow its list one doubling at a time.
	return &lookup{nw: nw, cands: make([]candidate, 0, seenFirst/2)}
}

func (nw *Network) newRPC() *rpc {
	p := &nw.pool
	if last := len(p.rpcs) - 1; last >= 0 {
		r := p.rpcs[last]
		p.rpcs = p.rpcs[:last]
		return r
	}
	r := &rpc{nw: nw}
	r.serve, r.done = r.handle, r.complete
	return r
}

// NewNetwork creates an empty deployment over nm. s is the kernel nm was
// built on; identity and bootstrap randomness draw from its "kademlia"
// stream.
func NewNetwork(s *sim.Sim, nm *netmodel.Net, cfg Config) *Network {
	return &Network{
		sim:    s,
		net:    nm,
		cfg:    cfg.withDefaults(),
		rng:    s.Stream("kademlia"),
		byAddr: make(map[netmodel.NodeID]*Node),
	}
}

// Nodes returns the nodes in creation order. The returned slice is shared;
// callers must not modify it.
func (nw *Network) Nodes() []*Node { return nw.nodes }

// AddNode attaches a new honest node in the given region. Responsiveness is
// drawn from Config.UnresponsiveFrac.
func (nw *Network) AddNode(region netmodel.Region) *Node {
	return nw.addNode(region, overlay.RandomID(nw.rng), !nw.rng.Bool(nw.cfg.UnresponsiveFrac), false)
}

// AddMaliciousNode attaches an attacker-controlled node with a chosen
// identifier. Malicious nodes are always responsive — answering fast is the
// attack. The poison function fabricates its FIND_NODE replies; nil means it
// behaves protocol-correctly (a passive sybil that merely occupies space).
// The slice poison returns is read before its next call and never kept, so
// poison may reuse one buffer for every reply.
func (nw *Network) AddMaliciousNode(region netmodel.Region, id overlay.ID, poison func(target overlay.ID) []Contact) *Node {
	n := nw.addNode(region, id, true, true)
	n.poison = poison
	return n
}

func (nw *Network) addNode(region netmodel.Region, id overlay.ID, responsive, malicious bool) *Node {
	addr := nw.net.AddNode(region, 0)
	n := &Node{
		ID:         id,
		Addr:       addr,
		table:      NewTable(id, nw.cfg.K),
		responsive: responsive,
		malicious:  malicious,
		online:     true,
	}
	nw.nodes = append(nw.nodes, n)
	nw.byAddr[addr] = n
	return n
}

// SetOnline attaches or detaches a node, mirroring churn transitions.
func (nw *Network) SetOnline(n *Node, online bool) {
	n.online = online
	nw.net.SetUp(n.Addr, online)
}

// Bootstrap populates every online node's routing table as a converged
// network would have it: each node learns its K XOR-closest online
// neighbours plus a sample of distant online contacts. This mirrors the
// steady state reached after every node has performed a self-lookup and
// bucket refreshes, without paying the O(n·lookup) message cost — joins and
// departures after Bootstrap are handled by the normal protocol machinery.
// Offline nodes are excluded (a converged network has evicted them).
func (nw *Network) Bootstrap() error {
	if len(nw.nodes) < 2 {
		return errors.New("kademlia: need at least two nodes to bootstrap")
	}
	order := make([]*Node, 0, len(nw.nodes))
	for _, node := range nw.nodes {
		if node.online {
			order = append(order, node)
		}
	}
	n := len(order)
	if n < 2 {
		return errors.New("kademlia: need at least two online nodes to bootstrap")
	}
	// Sort by identifier; numerically adjacent identifiers share long
	// prefixes, so XOR-closest neighbours are found among the numeric
	// neighbours.
	sort.Slice(order, func(i, j int) bool { return order[i].ID.Less(order[j].ID) })
	window := 4 * nw.cfg.K
	sel := newNearest[Contact](overlay.ID{}, nw.cfg.K)
	for i, node := range order {
		lo := i - window/2
		if lo < 0 {
			lo = 0
		}
		hi := lo + window
		if hi > n {
			hi = n
			lo = hi - window
			if lo < 0 {
				lo = 0
			}
		}
		sel.target, sel.items, sel.dists = node.ID, sel.items[:0], sel.dists[:0]
		for j := lo; j < hi; j++ {
			if j != i {
				sel.offer(order[j].ID, Contact{ID: order[j].ID, Addr: order[j].Addr})
			}
		}
		for _, c := range sel.items {
			node.table.Add(c)
		}
		// Distant contacts: random online nodes fill the short-prefix
		// buckets that carry most routing progress.
		for j := 0; j < 4*nw.cfg.K; j++ {
			other := order[nw.rng.Intn(n)]
			if other != node {
				node.table.Add(Contact{ID: other.ID, Addr: other.Addr})
			}
		}
	}
	return nil
}

// RandomOnlineNode returns a uniformly chosen online node, or nil if none
// exist. It models the centralized bootstrap servers every deployed DHT
// relies on.
func (nw *Network) RandomOnlineNode() *Node {
	for attempts := 0; attempts < 64; attempts++ {
		n := nw.nodes[nw.rng.Intn(len(nw.nodes))]
		if n.online {
			return n
		}
	}
	for _, n := range nw.nodes {
		if n.online {
			return n
		}
	}
	return nil
}

// Rejoin re-attaches a node after downtime: it wipes the stale routing
// table, seeds it from a bootstrap contact, and performs a self-lookup to
// repopulate its neighbourhood.
func (nw *Network) Rejoin(n *Node, done func()) {
	nw.SetOnline(n, true)
	n.table.reset()
	boot := nw.RandomOnlineNode()
	if boot == nil || boot == n {
		if done != nil {
			done()
		}
		return
	}
	n.table.Add(Contact{ID: boot.ID, Addr: boot.Addr})
	if done == nil {
		nw.Lookup(n, n.ID, nil) // builds no Result and allocates nothing once warm
		return
	}
	nw.Lookup(n, n.ID, func(Result) { done() })
}

// ClosestOnline returns the k online, responsive, honest nodes closest to
// target — the ground truth a successful lookup should discover.
func (nw *Network) ClosestOnline(target overlay.ID, k int) []*Node {
	sel := newNearest[*Node](target, k)
	for _, n := range nw.nodes {
		if n.online && n.responsive && !n.malicious {
			sel.offer(n.ID, n)
		}
	}
	return sel.items
}

// rpc is one FIND_NODE query, the exchange netmodel.Net.Call runs with serve
// and done bound once per object. It reports to its lookup exactly once,
// with either the contacts from the reply or ok=false on timeout/drop —
// also when the request was served and only the reply was late or lost.
// It goes back to the pool, reply buffer and all, in done, unless done
// reports its request still in flight: a late serve writes into it, so it
// is left to the garbage collector.
type rpc struct {
	nw     *Network
	serve  func() bool
	done   func(ok, inFlight bool)
	lookup *lookup
	from   *Node
	to     netmodel.NodeID
	dist   overlay.Distance // the queried candidate's, which names it to the lookup
	target overlay.ID       // serve's copy: the lookup may be recycled before a late serve
	reply  []Contact        // written by serve, read by done
}

// send queries the candidate of l at distance d, which lives at to.
func (r *rpc) send(l *lookup, to netmodel.NodeID, d overlay.Distance) {
	r.lookup, r.from, r.to, r.dist, r.target = l, l.origin, to, d, l.target
	nw := r.nw
	nw.net.Call(r.from.Addr, to, reqSize, 60+26*nw.cfg.K, nw.cfg.RPCTimeout, r.serve, r.done)
}

func (r *rpc) handle() bool {
	nw := r.nw
	recv, ok := nw.byAddr[r.to]
	if !ok || !recv.online {
		return false
	}
	// Open networks learn the requester — the sybil poisoning vector.
	recv.table.Add(Contact{ID: r.from.ID, Addr: r.from.Addr})
	if !recv.responsive {
		return false
	}
	if recv.malicious && recv.poison != nil {
		r.reply = append(r.reply[:0], recv.poison(r.target)...)
	} else {
		r.reply = recv.table.appendClosest(r.reply[:0], r.target, nw.cfg.K)
	}
	return true
}

func (r *rpc) complete(ok, inFlight bool) {
	r.lookup.onReply(r.dist, r.reply, ok) // the reply is read only when ok
	if inFlight {
		return // a late serve writes into r
	}
	r.lookup, r.from = nil, nil
	r.nw.pool.rpcs = append(r.nw.pool.rpcs, r)
}
