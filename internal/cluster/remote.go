package cluster

import (
	"bufio"
	"errors"
	"fmt"
	"io"
	"log"
	"net"
	"runtime/debug"
	"sync"
	"sync/atomic"
	"time"

	"kspdg/internal/codec"
	"kspdg/internal/graph"
)

// maxInflightPerConn bounds the number of concurrently executing requests a
// server runs per connection.  When the bound is hit the connection's read
// loop blocks, which backpressures the client through the kernel buffers
// instead of growing an unbounded goroutine pile.
const maxInflightPerConn = 64

// Server exposes a Worker over TCP, one binary frame per message (see
// wire.go).  It is the network deployment of a SubgraphBolt host: cmd/kspd
// wraps it in a worker process, and a master process reaches it through
// RemoteWorker.
//
// A connection opens with both sides' preambles; a peer whose preamble is
// not this wire version's is logged and dropped.  Every request envelope is
// executed on a bounded per-connection goroutine pool and answered — possibly
// out of order — with its ID echoed.  A panic while serving one request fails
// that request alone (see dispatch).
type Server struct {
	worker   *Worker
	listener net.Listener

	mu     sync.Mutex
	closed bool
	conns  map[net.Conn]struct{}
	wg     sync.WaitGroup
}

// Serve starts serving the worker on addr (e.g. "127.0.0.1:0") and returns
// the server.  The returned server is already accepting connections on
// Server.Addr().
func Serve(addr string, worker *Worker) (*Server, error) {
	l, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, fmt.Errorf("cluster: listen %s: %w", addr, err)
	}
	s := &Server{worker: worker, listener: l, conns: make(map[net.Conn]struct{})}
	s.wg.Add(1)
	go s.acceptLoop()
	return s, nil
}

// Addr returns the address the server listens on.
func (s *Server) Addr() string { return s.listener.Addr().String() }

// Close stops accepting connections, closes existing ones, and waits until
// every connection handler — including request goroutines spawned for
// in-flight multiplexed requests — has returned.  Requests already executing
// finish their computation; their replies fail to send on the closed
// connection and are dropped.  Close is idempotent and safe to call
// concurrently with new connections being accepted: the listener is closed
// before the per-connection teardown, and a connection that slipped past
// Accept is detected by the registration check and closed unserved.
func (s *Server) Close() error {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		_ = s.listener.Close()
		s.wg.Wait()
		return nil
	}
	s.closed = true
	s.mu.Unlock()
	// Close the listener first so no further connections are accepted, then
	// close the registered connections.  A connection accepted before the
	// listener closed but not yet registered is closed by acceptLoop itself
	// when registration observes the closed flag.
	err := s.listener.Close()
	s.mu.Lock()
	for c := range s.conns {
		c.Close()
	}
	s.mu.Unlock()
	s.wg.Wait()
	return err
}

func (s *Server) acceptLoop() {
	defer s.wg.Done()
	for {
		conn, err := s.listener.Accept()
		if err != nil {
			return
		}
		// Registration and the closed-check are one critical section, and the
		// handler is accounted in s.wg before the section ends: Close either
		// sees the connection in s.conns (and closes it) or this loop sees
		// s.closed (and closes it here).  There is no window in which a fresh
		// connection can outlive Close unsupervised.
		s.mu.Lock()
		if s.closed {
			s.mu.Unlock()
			conn.Close()
			return
		}
		s.conns[conn] = struct{}{}
		s.wg.Add(1)
		s.mu.Unlock()
		go s.handleConn(conn)
	}
}

func (s *Server) handleConn(conn net.Conn) {
	defer s.wg.Done()
	// requests tracks the goroutines spawned for multiplexed requests so the
	// connection teardown (and therefore Close) waits for them.
	var requests sync.WaitGroup
	defer func() {
		requests.Wait()
		s.mu.Lock()
		delete(s.conns, conn)
		s.mu.Unlock()
		conn.Close()
	}()
	br := bufio.NewReader(conn)
	err := writePreamble(conn)
	if err == nil {
		err = readPreamble(br)
	}
	if err != nil {
		if errors.Is(err, errWrongPeer) {
			log.Printf("cluster: worker %d: dropping connection from %s: %v", s.worker.id, conn.RemoteAddr(), err)
		}
		return
	}
	// writeMu serialises reply writes: multiplexed replies come from
	// concurrent request goroutines, and each is encoded into the one reply
	// buffer and written as a whole frame.
	var writeMu sync.Mutex
	var out []byte
	write := func(reply replyEnvelope) error {
		writeMu.Lock()
		defer writeMu.Unlock()
		var err error
		if out, err = appendReply(out[:0], reply); err != nil {
			// Every reply must reach its caller, or the caller waits forever.
			out, _ = appendReply(out[:0], replyEnvelope{ID: reply.ID, Err: err.Error()})
		}
		_, err = conn.Write(out)
		return err
	}
	slots := make(chan struct{}, maxInflightPerConn)
	var frame []byte
	for {
		body, err := codec.ReadSized(br, frame)
		if err != nil {
			return
		}
		frame = body
		env, err := decodeEnvelope(body)
		if err != nil {
			return // a malformed request: the peer is not speaking the protocol
		}
		slots <- struct{}{}
		requests.Add(1)
		go func(env envelope) {
			defer requests.Done()
			defer func() { <-slots }()
			_ = write(s.dispatch(env))
		}(env)
	}
}

// dispatch executes one request envelope against the worker and echoes its
// ID.  A panic in the handler (one pair's search hitting a bug, a resolver
// blowing up) is contained to this request: the caller gets an error reply,
// the stack is logged once, and the worker's Panics counter is bumped, while
// the connection and every other request on it carry on.
func (s *Server) dispatch(env envelope) (reply replyEnvelope) {
	defer func() {
		if r := recover(); r != nil {
			s.worker.panics.Add(1)
			log.Printf("cluster: worker %d: panic serving request %d: %v\n%s", s.worker.id, env.ID, r, debug.Stack())
			reply = replyEnvelope{Err: fmt.Sprintf("cluster: worker panic: %v", r)}
		}
		reply.ID = env.ID
	}()
	switch {
	case env.Partial != nil:
		resp := s.worker.HandlePartialKSP(*env.Partial)
		reply.Partial = &resp
	case env.Update != nil:
		resp := s.worker.HandleWeightUpdate(*env.Update)
		reply.Update = &resp
	case env.Topology != nil:
		resp := s.worker.HandleTopologyUpdate(*env.Topology)
		reply.Topology = &resp
	case env.Stats != nil:
		resp := s.worker.HandleStats(*env.Stats)
		reply.Stats = &resp
	case env.Ping:
		reply.Pong = true
	default:
		reply.Err = "cluster: empty envelope"
	}
	return reply
}

// ClientOptions configures a RemoteWorker client.
type ClientOptions struct {
	// PoolSize is the number of TCP connections requests are spread over.
	// Zero means 1.  Even with one connection the client is pipelined: many
	// requests can be in flight concurrently, demultiplexed by request ID.
	PoolSize int
	// MaxAttempts is the number of tries per request across reconnects.
	// Zero means 4.
	MaxAttempts int
	// BackoffBase and BackoffMax bound the capped exponential delay between
	// attempts after a connection failure.  Zeros mean 2ms and 250ms.
	BackoffBase time.Duration
	BackoffMax  time.Duration
}

func (o ClientOptions) withDefaults() ClientOptions {
	if o.PoolSize <= 0 {
		o.PoolSize = 1
	}
	if o.MaxAttempts <= 0 {
		o.MaxAttempts = 4
	}
	if o.BackoffBase <= 0 {
		o.BackoffBase = 2 * time.Millisecond
	}
	if o.BackoffMax <= 0 {
		o.BackoffMax = 250 * time.Millisecond
	}
	return o
}

// callResult is a demultiplexed reply (or the transport error that killed
// the connection it was pending on).
type callResult struct {
	rep replyEnvelope
	err error
}

// pendingCalls tracks the in-flight request IDs of one connection and routes
// incoming replies to their waiters.  Unknown and duplicate IDs are dropped:
// a reply is delivered at most once, and only to the call that registered it.
type pendingCalls struct {
	mu    sync.Mutex
	calls map[uint64]chan callResult
	dead  error
}

func newPendingCalls() *pendingCalls {
	return &pendingCalls{calls: make(map[uint64]chan callResult)}
}

// register creates a waiter slot for id.  It fails if the connection already
// died (the reader exited before the call could be registered).
func (p *pendingCalls) register(id uint64) (chan callResult, error) {
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.dead != nil {
		return nil, p.dead
	}
	ch := make(chan callResult, 1)
	p.calls[id] = ch
	return ch, nil
}

// deliver routes one reply to its registered waiter.  It reports whether the
// reply was consumed; unmatched (unknown or already-answered) IDs are safely
// discarded.
func (p *pendingCalls) deliver(rep replyEnvelope) bool {
	p.mu.Lock()
	ch, ok := p.calls[rep.ID]
	if ok {
		delete(p.calls, rep.ID)
	}
	p.mu.Unlock()
	if !ok {
		return false
	}
	ch <- callResult{rep: rep}
	return true
}

// drop forgets a registered id (used when the request failed to send).
func (p *pendingCalls) drop(id uint64) {
	p.mu.Lock()
	delete(p.calls, id)
	p.mu.Unlock()
}

// failAll terminates every pending call with err and poisons the table so
// later registrations fail fast.
func (p *pendingCalls) failAll(err error) {
	p.mu.Lock()
	if p.dead == nil {
		p.dead = err
	}
	calls := p.calls
	p.calls = make(map[uint64]chan callResult)
	p.mu.Unlock()
	for _, ch := range calls {
		ch <- callResult{err: err}
	}
}

// readReplies reads reply frames from r and routes each to its pending call
// until the stream ends, returning the error that ended it: the end of the
// input, a frame that fails its CRC, or a body that does not decode.  It is
// the demultiplexing half of the framing; FuzzFramedEnvelope drives it with
// adversarial streams.
func readReplies(r io.Reader, pending *pendingCalls) error {
	var frame []byte
	for {
		body, err := codec.ReadSized(r, frame)
		if err != nil {
			return err
		}
		frame = body
		rep, err := decodeReply(body)
		if err != nil {
			return err
		}
		pending.deliver(rep)
	}
}

// clientConn is one pooled connection of a RemoteWorker: a request buffer
// and the connection's writes guarded by a mutex, and a reader goroutine
// demultiplexing replies by ID.
// When the connection breaks, pending calls fail (their callers retry through
// the RemoteWorker backoff loop) and the next send re-dials.
type clientConn struct {
	addr string

	mu      sync.Mutex
	closed  bool
	conn    net.Conn
	out     []byte // the last request's frame, reused by the next send
	pending *pendingCalls
}

// ensureLocked dials the connection if needed.  Callers hold cc.mu.
func (cc *clientConn) ensureLocked() error {
	if cc.closed {
		// A roundTrip racing RemoteWorker.Close must not re-dial: the fresh
		// connection and its reader goroutine would outlive the client.
		return errClientClosed
	}
	if cc.conn != nil {
		return nil
	}
	conn, br, err := dialWire(cc.addr)
	if err != nil {
		return fmt.Errorf("cluster: dial %s: %w", cc.addr, err)
	}
	cc.conn = conn
	cc.pending = newPendingCalls()
	pending := cc.pending
	go func() {
		err := readReplies(br, pending)
		pending.failAll(fmt.Errorf("cluster: connection to %s lost: %w", cc.addr, err))
		cc.teardown(conn)
	}()
	return nil
}

// send encodes one request and returns the channel its reply will arrive on.
func (cc *clientConn) send(env envelope) (chan callResult, error) {
	cc.mu.Lock()
	defer cc.mu.Unlock()
	if err := cc.ensureLocked(); err != nil {
		return nil, err
	}
	ch, err := cc.pending.register(env.ID)
	if err != nil {
		return nil, err
	}
	out, err := appendEnvelope(cc.out[:0], env)
	if err != nil {
		cc.pending.drop(env.ID)
		return nil, err
	}
	cc.out = out
	if _, err := cc.conn.Write(out); err != nil {
		cc.pending.drop(env.ID)
		cc.conn.Close()
		cc.conn = nil
		return nil, fmt.Errorf("cluster: send to %s: %w", cc.addr, err)
	}
	return ch, nil
}

// teardown discards the connection if it is still the current one.
func (cc *clientConn) teardown(conn net.Conn) {
	cc.mu.Lock()
	defer cc.mu.Unlock()
	if cc.conn == conn {
		cc.conn.Close()
		cc.conn = nil
	}
}

// close closes the connection permanently and fails its pending calls.
func (cc *clientConn) close(err error) {
	cc.mu.Lock()
	cc.closed = true
	conn, pending := cc.conn, cc.pending
	cc.conn = nil
	cc.mu.Unlock()
	if conn != nil {
		conn.Close()
	}
	if pending != nil {
		pending.failAll(err)
	}
}

// errClientClosed fails requests issued after RemoteWorker.Close.
var errClientClosed = errors.New("cluster: client closed")

// RemoteWorker is a client to a worker Server.  It is safe for unbounded
// concurrent use: requests are tagged with IDs, spread over a pool of
// connections, and demultiplexed by reader goroutines, so many requests are
// in flight concurrently instead of lock-step request/response.  A dropped
// connection is re-dialed with capped exponential backoff and the affected
// requests are retried (all worker requests are idempotent: partial-KSP is a
// read and weight updates carry absolute weights, though a retried update
// whose original reply was lost is counted twice in the worker's load
// stats).
type RemoteWorker struct {
	addr string
	opts ClientOptions

	ids    atomic.Uint64 // request ID source
	next   atomic.Uint64 // round-robin cursor over the pool
	closed atomic.Bool
	conns  []*clientConn

	// failStreak counts consecutive transport failures across all requests
	// and attempts of this client.  It only resets after a successful
	// round-trip — a reply actually arriving — never on a merely accepted
	// write: a half-dead connection that swallows requests without answering
	// must keep backing off instead of retrying at full speed.
	failStreak atomic.Uint64
}

// DialPool connects to a worker server with an explicit transport
// configuration.  All PoolSize connections are established eagerly so
// unreachable workers fail fast; later drops reconnect lazily with backoff.
func DialPool(addr string, opts ClientOptions) (*RemoteWorker, error) {
	opts = opts.withDefaults()
	rw := &RemoteWorker{addr: addr, opts: opts}
	for i := 0; i < opts.PoolSize; i++ {
		cc := &clientConn{addr: addr}
		cc.mu.Lock()
		err := cc.ensureLocked()
		cc.mu.Unlock()
		if err != nil {
			for _, prev := range rw.conns {
				prev.close(errClientClosed)
			}
			return nil, err
		}
		rw.conns = append(rw.conns, cc)
	}
	return rw, nil
}

// Close closes every pooled connection; pending requests fail.
func (rw *RemoteWorker) Close() error {
	rw.closed.Store(true)
	for _, cc := range rw.conns {
		cc.close(errClientClosed)
	}
	return nil
}

// backoffDelay derives the pre-attempt delay from the client's persistent
// failure streak: BackoffBase doubled per recorded failure, capped at
// BackoffMax.  Zero while the client is healthy.
func (rw *RemoteWorker) backoffDelay() time.Duration {
	streak := rw.failStreak.Load()
	if streak == 0 {
		return 0
	}
	delay := rw.opts.BackoffBase
	for i := uint64(1); i < streak && delay < rw.opts.BackoffMax; i++ {
		delay *= 2
	}
	if delay > rw.opts.BackoffMax {
		delay = rw.opts.BackoffMax
	}
	return delay
}

// roundTrip issues one request and waits for its reply, retrying with capped
// backoff across reconnects on transport failures.  The backoff state lives
// on the client, not the call: the streak persists across round trips and
// only a completed round-trip (a reply received) resets it, so a connection
// that accepts writes but never answers keeps being treated as failing.
// Application-level errors (reply.Err) are returned without retry.
func (rw *RemoteWorker) roundTrip(env envelope) (replyEnvelope, error) {
	var lastErr error
	for attempt := 0; attempt < rw.opts.MaxAttempts; attempt++ {
		// The delay applies before the first attempt too: with a nonzero
		// streak the worker is known-unhealthy, and fresh calls pacing
		// themselves is the whole point of persisting the backoff state.
		if delay := rw.backoffDelay(); delay > 0 {
			time.Sleep(delay)
		}
		if rw.closed.Load() {
			return replyEnvelope{}, errClientClosed
		}
		cc := rw.conns[rw.next.Add(1)%uint64(len(rw.conns))]
		env.ID = rw.ids.Add(1)
		ch, err := cc.send(env)
		if err != nil {
			lastErr = err
			rw.failStreak.Add(1)
			continue
		}
		res := <-ch
		if res.err != nil {
			lastErr = res.err
			rw.failStreak.Add(1)
			continue
		}
		rw.failStreak.Store(0)
		if res.rep.Err != "" {
			return replyEnvelope{}, errors.New(res.rep.Err)
		}
		return res.rep, nil
	}
	return replyEnvelope{}, fmt.Errorf("cluster: %s unreachable after %d attempts: %w", rw.addr, rw.opts.MaxAttempts, lastErr)
}

// PartialKSP sends a partial-KSP request to the remote worker.
func (rw *RemoteWorker) PartialKSP(req PartialKSPRequest) (PartialKSPResponse, error) {
	reply, err := rw.roundTrip(envelope{Partial: &req})
	if err != nil {
		return PartialKSPResponse{}, err
	}
	if reply.Partial == nil {
		return PartialKSPResponse{}, errors.New("cluster: missing partial response")
	}
	return *reply.Partial, nil
}

// ApplyUpdates sends weight updates to the remote worker.
func (rw *RemoteWorker) ApplyUpdates(updates []graph.WeightUpdate) (WeightUpdateResponse, error) {
	reply, err := rw.roundTrip(envelope{Update: &WeightUpdateRequest{Updates: updates}})
	if err != nil {
		return WeightUpdateResponse{}, err
	}
	if reply.Update == nil {
		return WeightUpdateResponse{}, errors.New("cluster: missing update response")
	}
	if reply.Update.Err != "" {
		return *reply.Update, fmt.Errorf("cluster: worker failed to apply updates: %s", reply.Update.Err)
	}
	return *reply.Update, nil
}

// ApplyTopology sends a topology batch to the remote worker.  Unlike weight
// updates, topology batches are NOT idempotent: a re-delivered batch (the
// transport retries within the attempt budget when a reply is lost) appends
// its inserts a second time.  Batches containing deletes fail loudly on
// re-delivery — deleting an already-dead edge is an error — and the echoed
// InsertedEdges let the master detect an id-shifted double apply.  A master
// observing either signal, or a transport error, must treat the worker's
// structure as diverged and resync it (restart from a snapshot).
func (rw *RemoteWorker) ApplyTopology(req TopologyUpdateRequest) (TopologyUpdateResponse, error) {
	reply, err := rw.roundTrip(envelope{Topology: &req})
	if err != nil {
		return TopologyUpdateResponse{}, err
	}
	if reply.Topology == nil {
		return TopologyUpdateResponse{}, errors.New("cluster: missing topology response")
	}
	if reply.Topology.Err != "" {
		return *reply.Topology, fmt.Errorf("cluster: worker failed to apply topology batch: %s", reply.Topology.Err)
	}
	return *reply.Topology, nil
}

// Stats fetches the remote worker's load counters.
func (rw *RemoteWorker) Stats() (StatsResponse, error) {
	reply, err := rw.roundTrip(envelope{Stats: &StatsRequest{}})
	if err != nil {
		return StatsResponse{}, err
	}
	if reply.Stats == nil {
		return StatsResponse{}, errors.New("cluster: missing stats response")
	}
	return *reply.Stats, nil
}

// Ping probes the remote worker with a no-op request.  It is the health
// check the membership layer runs between real traffic; like every request
// it retries within the client's attempt budget, so one Ping error means the
// worker stayed unreachable through the backoff window.
func (rw *RemoteWorker) Ping() error {
	reply, err := rw.roundTrip(envelope{Ping: true})
	if err != nil {
		return err
	}
	if !reply.Pong {
		return fmt.Errorf("cluster: %s did not acknowledge ping", rw.addr)
	}
	return nil
}
