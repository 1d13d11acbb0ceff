package core

import (
	"context"
	"crypto/ed25519"
	"fmt"
	"sync"
	"time"

	"endbox/internal/attest"
	"endbox/internal/click"
	"endbox/internal/vpn"
)

// ServerEndpoint is the server-side surface a Transport dispatches into:
// everything a remote client may ask of the operator — platform
// registration, remote attestation, the VPN handshake and fast resume,
// configuration fetches and data-channel frames — plus the shed
// accounting of transports that drop frames under overload. Deployment
// implements it; transports must not assume any other methods.
type ServerEndpoint interface {
	// RegisterPlatform records a platform's quoting-enclave key with the
	// IAS (standing in for Intel's manufacturing provisioning) and returns
	// the CA public key clients bake into their enclave image.
	RegisterPlatform(platformID string, key ed25519.PublicKey) (ed25519.PublicKey, error)
	// Enroll submits an attestation quote to the CA (paper Fig. 4).
	Enroll(q attest.Quote) (*attest.Provision, error)
	// AcceptHello runs the server side of the VPN handshake.
	AcceptHello(h *vpn.ClientHello) (*vpn.ServerHello, error)
	// AcceptResume runs the server side of a fast session resume
	// (MsgResume): a ticket check and one signature verification instead
	// of the full handshake — and no attestation or enrolment round
	// trips upstream of it.
	AcceptResume(r *vpn.ResumeRequest) (*vpn.ResumeReply, error)
	// HandleFrame processes one sealed client->server frame. The frame
	// buffer is lent for the duration of the call: the endpoint may
	// decrypt it in place, and the transport may recycle it as soon as
	// HandleFrame returns — neither side retains it (see DESIGN.md
	// "Buffer ownership").
	HandleFrame(clientID string, frame []byte) error
	// FrameShed records one frame from clientID discarded by the
	// transport's ingress overload shedding (VIFStats.Shed). Transports
	// that never shed never call it.
	FrameShed(clientID string)
	// FetchConfig retrieves a sealed configuration blob; version 0 selects
	// the latest published version.
	FetchConfig(version uint64) ([]byte, error)
}

// ClientLink is one client's endpoint of a Transport: control-plane round
// trips plus the sealed data channel in both delivery classes. All
// methods are safe for concurrent use once the link is established.
type ClientLink interface {
	// Register performs platform registration, returning the CA key.
	Register(ctx context.Context, platformID string, key ed25519.PublicKey) (ed25519.PublicKey, error)
	// Enroll performs remote attestation.
	Enroll(ctx context.Context, q attest.Quote) (*attest.Provision, error)
	// Hello performs the VPN handshake round trip.
	Hello(ctx context.Context, h *vpn.ClientHello) (*vpn.ServerHello, error)
	// Resume performs the fast-resume round trip (MsgResume).
	Resume(ctx context.Context, r *vpn.ResumeRequest) (*vpn.ResumeReply, error)
	// FetchConfig retrieves a sealed configuration blob (0 = latest).
	FetchConfig(ctx context.Context, version uint64) ([]byte, error)
	// SendFrame transmits one sealed client->server data frame. The frame
	// is lent for the duration of the call; the caller may recycle its
	// buffer once SendFrame returns.
	SendFrame(frame []byte) error
	// SendControlFrame transmits one sealed control-class frame
	// (keepalive pings, nacks, health reports), which a shedding server
	// ingress accepts past its overload watermark so a data flood cannot
	// silence the signals that manage the fleet. Lending semantics match
	// SendFrame; a transport that never sheds sends it like SendFrame.
	SendControlFrame(frame []byte) error
	// SetDeliver installs the handler for server->client frames. It must
	// be called before the handshake; frames arriving earlier may be
	// dropped. A burst of queued frames is handed over in one call so it
	// crosses the client's enclave boundary in one ecall. Frames are lent
	// to the handler for the duration of the call only — handlers that
	// keep them must copy.
	SetDeliver(fn func(frames [][]byte) error)
	// Close releases the link.
	Close() error
}

// RetransmitConfig tunes the control-path ARQ layer of transports that
// deliver control messages reliably over a lossy datagram network (see
// Transport.Configure and docs/PROTOCOL.md). The zero value selects the
// defaults. Data-channel frames are never retransmitted — reliability
// applies to the control/configuration path only, so the zero-allocation
// data path is untouched.
type RetransmitConfig struct {
	// Timeout is the initial retransmit timeout (RTO) armed when a
	// transfer's first segments go out (default 200ms).
	Timeout time.Duration
	// Backoff multiplies the RTO after each fruitless timeout (default 2).
	Backoff float64
	// MaxRetries is the retry budget: how many consecutive fruitless
	// timeout rounds a transfer survives before it fails (default 5).
	// Acknowledged progress refills the budget.
	MaxRetries int
	// AckDelay is the receiver's gap-probe delay: how long an incomplete
	// transfer waits for more segments before re-advertising its holes,
	// asking the sender for exactly the missing segments (default 50ms).
	AckDelay time.Duration
	// Window bounds how many unacknowledged segments a transfer keeps in
	// flight (default 32; clamped to 32, the selective-ack bitmap width —
	// a wider window would put segments in flight that acks cannot
	// selectively report, silently degrading recovery to full-window
	// timeout retransmits).
	Window int
}

// WithDefaults fills unset fields with the default ARQ tuning.
func (c RetransmitConfig) WithDefaults() RetransmitConfig {
	if c.Timeout <= 0 {
		c.Timeout = 200 * time.Millisecond
	}
	if c.Backoff < 1 {
		c.Backoff = 2
	}
	if c.MaxRetries <= 0 {
		c.MaxRetries = 5
	}
	if c.AckDelay <= 0 {
		c.AckDelay = 50 * time.Millisecond
	}
	if c.Window <= 0 || c.Window > 32 {
		c.Window = 32
	}
	return c
}

// TransferDeadline is the worst-case lifetime of one reliable transfer:
// the full retransmission schedule (initial timeout plus every backed-off
// retry) and the receiver's gap-probe delay. Round trips that span two
// transfers (request plus response) should allow twice this.
func (c RetransmitConfig) TransferDeadline() time.Duration {
	c = c.WithDefaults()
	d := c.AckDelay
	rto := c.Timeout
	for i := 0; i <= c.MaxRetries; i++ {
		d += rto
		rto = time.Duration(float64(rto) * c.Backoff)
	}
	return d
}

// LossProfile describes simulated network impairment applied to a
// transport's control-path datagrams — the testing seam behind
// WithLossProfile. Probabilities are in [0, 1]; the zero value impairs
// nothing. The profile drives a deterministic, seeded model
// (netsim.Faults), so a test that completes under a given profile
// completes every run.
type LossProfile struct {
	// Drop is the probability a datagram is silently discarded.
	Drop float64
	// Duplicate is the probability a datagram is delivered twice.
	Duplicate float64
	// Reorder is the probability a datagram is held back and delivered
	// after the next one.
	Reorder float64
	// CorruptEvery flips one seeded bit in every Nth surviving datagram
	// (0 = never). Sealed frames so mangled must fail authentication at
	// the receiver — the corruption-tolerance testing seam.
	CorruptEvery uint64
	// Seed seeds the deterministic fault sequence.
	Seed int64
}

// Zero reports whether the profile impairs nothing.
func (p LossProfile) Zero() bool {
	return p.Drop == 0 && p.Duplicate == 0 && p.Reorder == 0 && p.CorruptEvery == 0
}

// Transport moves sealed VPN frames and control-plane messages between the
// server side of a deployment and its clients. The same Deployment code
// drives an in-process transport (direct calls, zero copies — the unit-test
// and benchmark configuration) or a socket transport (cmd/endbox-server and
// cmd/endbox-client over UDP); implementations must be safe for concurrent
// use.
type Transport interface {
	// Configure applies the deployment's transport settings: the server
	// ingress worker count (0 = a single serve goroutine), the
	// control-path ARQ tuning, and the simulated control-path impairment
	// (zero = none). It is called exactly once, before BindServer. A
	// transport that cannot lose or pipeline anything ignores it.
	Configure(workers int, retransmit RetransmitConfig, loss LossProfile)
	// BindServer attaches the server-side endpoint. It is called exactly
	// once, before any Link or SendToClient.
	BindServer(ep ServerEndpoint) error
	// SendToClient pushes a sealed server->client frame.
	SendToClient(clientID string, frame []byte) error
	// Link opens the client-side endpoint for one client.
	Link(ctx context.Context, clientID string) (ClientLink, error)
	// Close releases all transport resources.
	Close() error
}

// ObserverFuncs receives deployment-wide events: the data path (packets
// accepted into the managed network, packets delivered to client
// applications, middlebox alerts), the session lifecycle (evictions,
// resumes, admission refusals, build revocations) and robustness events
// (element faults, configuration versions a client could not apply). The
// client is identified explicitly so one observer can watch any number
// of clients. Nil fields ignore their event; repeated WithObserver calls
// compose. Callbacks must be safe for concurrent use: the deployment
// invokes them from whichever goroutine carried the event.
type ObserverFuncs struct {
	// OnDelivered fires when a client packet is accepted into the managed
	// network (server side, after middlebox + policy checks).
	OnDelivered func(clientID string, ip []byte)
	// OnReceived fires when an inbound packet is delivered to a client
	// application (client side, after in-enclave processing).
	OnReceived func(clientID string, ip []byte)
	// OnAlert fires for middlebox alerts raised inside a client's enclave.
	OnAlert func(clientID string, a click.Alert)
	// OnEvicted fires when the liveness sweep evicts an idle session (its
	// VIF address and shard slot have been reclaimed).
	OnEvicted func(clientID string)
	// OnResumed fires when a client re-establishes its session from a
	// resumption ticket.
	OnResumed func(clientID string)
	// OnRefused fires when admission control turns a handshake or resume
	// away; err is ErrAdmissionThrottled or ErrServerFull.
	OnRefused func(clientID string, err error)
	// OnRevoked fires when a live session is evicted because its attested
	// enclave build was revoked; build is the registered build name.
	// Liveness evictions fire OnEvicted instead.
	OnRevoked func(clientID, build string)
	// OnFault fires for every containment event in a client's pipeline:
	// each recovered panic, and the trip that quarantines the element.
	OnFault func(clientID string, f click.ElementFault)
	// OnUpdateError fires when a client fails to apply a server-announced
	// configuration version.
	OnUpdateError func(clientID string, version uint64, err error)
}

// Both transports (this file's and internal/udptransport's) serve the same
// Deployment through these three contracts.
var (
	_ Transport      = (*InProcessTransport)(nil)
	_ ClientLink     = (*inprocLink)(nil)
	_ ServerEndpoint = (*Deployment)(nil)
)

// InProcessTransport links clients to the server by direct function calls —
// the configuration every in-memory deployment, test and benchmark uses.
// Sends are synchronous: a SendFrame runs the server's frame handling on
// the caller's stack, exactly like the original hardwired function
// pointers, so the data path costs no goroutine hops.
type InProcessTransport struct {
	mu    sync.RWMutex
	ep    ServerEndpoint
	links map[string]*inprocLink
}

// NewInProcessTransport creates an empty in-process transport.
func NewInProcessTransport() *InProcessTransport {
	return &InProcessTransport{links: make(map[string]*inprocLink)}
}

// Configure implements Transport. Direct calls cannot lose, reorder or
// pipeline anything, so every setting is ignored.
func (t *InProcessTransport) Configure(int, RetransmitConfig, LossProfile) {}

// BindServer implements Transport.
func (t *InProcessTransport) BindServer(ep ServerEndpoint) error {
	t.mu.Lock()
	defer t.mu.Unlock()
	if t.ep != nil {
		return fmt.Errorf("core: transport already bound")
	}
	t.ep = ep
	return nil
}

// SendToClient implements Transport.
func (t *InProcessTransport) SendToClient(clientID string, frame []byte) error {
	t.mu.RLock()
	l, ok := t.links[clientID]
	t.mu.RUnlock()
	if !ok {
		return fmt.Errorf("core: no transport link to client %q", clientID)
	}
	return l.deliverFrame(frame)
}

// Link implements Transport.
func (t *InProcessTransport) Link(ctx context.Context, clientID string) (ClientLink, error) {
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	if t.ep == nil {
		return nil, fmt.Errorf("core: transport not bound to a server")
	}
	if _, dup := t.links[clientID]; dup {
		return nil, fmt.Errorf("core: client %q already linked", clientID)
	}
	l := &inprocLink{t: t, clientID: clientID}
	t.links[clientID] = l
	return l, nil
}

// Close implements Transport.
func (t *InProcessTransport) Close() error {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.links = make(map[string]*inprocLink)
	return nil
}

// unlink removes a closed link from the registry.
func (t *InProcessTransport) unlink(clientID string, l *inprocLink) {
	t.mu.Lock()
	defer t.mu.Unlock()
	if t.links[clientID] == l {
		delete(t.links, clientID)
	}
}

// inprocLink is the client side of an InProcessTransport.
type inprocLink struct {
	t        *InProcessTransport
	clientID string

	mu      sync.RWMutex
	deliver func(frames [][]byte) error
	closed  bool
}

// oneFrame recycles the single-element bursts the in-process link hands
// its burst handler, keeping each delivery allocation-free.
var oneFrame = sync.Pool{New: func() any { return new([1][]byte) }}

func (l *inprocLink) endpoint() (ServerEndpoint, error) {
	l.mu.RLock()
	closed := l.closed
	l.mu.RUnlock()
	if closed {
		return nil, fmt.Errorf("core: link %q closed", l.clientID)
	}
	l.t.mu.RLock()
	ep := l.t.ep
	l.t.mu.RUnlock()
	if ep == nil {
		return nil, fmt.Errorf("core: transport not bound to a server")
	}
	return ep, nil
}

// Register implements ClientLink.
func (l *inprocLink) Register(ctx context.Context, platformID string, key ed25519.PublicKey) (ed25519.PublicKey, error) {
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	ep, err := l.endpoint()
	if err != nil {
		return nil, err
	}
	return ep.RegisterPlatform(platformID, key)
}

// Enroll implements ClientLink.
func (l *inprocLink) Enroll(ctx context.Context, q attest.Quote) (*attest.Provision, error) {
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	ep, err := l.endpoint()
	if err != nil {
		return nil, err
	}
	return ep.Enroll(q)
}

// Hello implements ClientLink.
func (l *inprocLink) Hello(ctx context.Context, h *vpn.ClientHello) (*vpn.ServerHello, error) {
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	ep, err := l.endpoint()
	if err != nil {
		return nil, err
	}
	return ep.AcceptHello(h)
}

// Resume implements ClientLink.
func (l *inprocLink) Resume(ctx context.Context, r *vpn.ResumeRequest) (*vpn.ResumeReply, error) {
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	ep, err := l.endpoint()
	if err != nil {
		return nil, err
	}
	return ep.AcceptResume(r)
}

// FetchConfig implements ClientLink.
func (l *inprocLink) FetchConfig(ctx context.Context, version uint64) ([]byte, error) {
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	ep, err := l.endpoint()
	if err != nil {
		return nil, err
	}
	return ep.FetchConfig(version)
}

// SendFrame implements ClientLink.
func (l *inprocLink) SendFrame(frame []byte) error {
	ep, err := l.endpoint()
	if err != nil {
		return err
	}
	return ep.HandleFrame(l.clientID, frame)
}

// SendControlFrame implements ClientLink. The in-process transport never
// sheds, so control-class frames take the SendFrame path.
func (l *inprocLink) SendControlFrame(frame []byte) error { return l.SendFrame(frame) }

// SetDeliver implements ClientLink.
func (l *inprocLink) SetDeliver(fn func(frames [][]byte) error) {
	l.mu.Lock()
	l.deliver = fn
	l.mu.Unlock()
}

// deliverFrame pushes a server->client frame into the registered handler.
func (l *inprocLink) deliverFrame(frame []byte) error {
	l.mu.RLock()
	fn := l.deliver
	closed := l.closed
	l.mu.RUnlock()
	if closed {
		return fmt.Errorf("core: link %q closed", l.clientID)
	}
	if fn == nil {
		return fmt.Errorf("core: client %q has no frame handler", l.clientID)
	}
	burst := oneFrame.Get().(*[1][]byte)
	burst[0] = frame
	err := fn(burst[:])
	burst[0] = nil
	oneFrame.Put(burst)
	return err
}

// Close implements ClientLink.
func (l *inprocLink) Close() error {
	l.mu.Lock()
	if l.closed {
		l.mu.Unlock()
		return nil
	}
	l.closed = true
	l.mu.Unlock()
	l.t.unlink(l.clientID, l)
	return nil
}
