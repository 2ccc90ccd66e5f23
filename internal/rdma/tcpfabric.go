package rdma

import (
	"encoding/binary"
	"fmt"
	"io"
	"math"
	"net"
	"sync"

	"github.com/portus-sys/portus/internal/memdev"
	"github.com/portus-sys/portus/internal/sim"
)

// copyRegions moves n bytes (or the content stamp) between devices,
// converting the mixed-mode panic into an error at the verbs boundary.
func copyRegions(dst *memdev.Device, dstOff int64, src *memdev.Device, srcOff, n int64) error {
	if dst.Materialized() != src.Materialized() {
		return fmt.Errorf("%w: %s -> %s", ErrModeMismatch, src.Name(), dst.Name())
	}
	memdev.Copy(dst, dstOff, src, srcOff, n)
	return nil
}

// TCPFabric carries verbs over real sockets. Each served node runs an
// agent goroutine that owns its MR table; one-sided READ/WRITE are
// handled entirely by the agent, so the remote application never
// participates — the soft equivalent of RDMA's bypass property.
type TCPFabric struct {
	env sim.Env

	mu     sync.Mutex
	peers  map[string]string // node name -> agent address
	conns  map[string]*agentConn
	recvs  map[string]*sim.Mailbox[simMsg]
	closed []io.Closer
}

// agentConn is a cached connection to a peer agent; requests on it are
// serialized.
type agentConn struct {
	mu sync.Mutex
	c  net.Conn
}

// NewTCPFabric creates a fabric using env (normally a RealEnv) for its
// receive queues.
func NewTCPFabric(env sim.Env) *TCPFabric {
	return &TCPFabric{
		env:   env,
		peers: make(map[string]string),
		conns: make(map[string]*agentConn),
		recvs: make(map[string]*sim.Mailbox[simMsg]),
	}
}

// Serve starts the agent for node on addr (empty means an ephemeral
// loopback port) and returns the bound address. Peers reach the node's
// MRs through this agent.
func (f *TCPFabric) Serve(n *Node, addr string) (string, error) {
	if addr == "" {
		addr = "127.0.0.1:0"
	}
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return "", fmt.Errorf("rdma: agent listen: %w", err)
	}
	f.mu.Lock()
	f.peers[n.name] = ln.Addr().String()
	f.closed = append(f.closed, ln)
	f.mu.Unlock()
	go func() {
		for {
			c, err := ln.Accept()
			if err != nil {
				return
			}
			go f.serveConn(n, c)
		}
	}()
	return ln.Addr().String(), nil
}

// AddPeer registers the address of a remote node's agent (out-of-band
// address exchange, as InfiniBand does with its subnet manager).
func (f *TCPFabric) AddPeer(name, addr string) {
	f.mu.Lock()
	defer f.mu.Unlock()
	f.peers[name] = addr
}

// PeerAddr looks up the agent address registered for a node (including
// nodes served by this fabric).
func (f *TCPFabric) PeerAddr(name string) (string, bool) {
	f.mu.Lock()
	defer f.mu.Unlock()
	addr, ok := f.peers[name]
	return addr, ok
}

// Close shuts down all agents served by this fabric.
func (f *TCPFabric) Close() {
	f.mu.Lock()
	defer f.mu.Unlock()
	for _, c := range f.closed {
		c.Close()
	}
	for _, ac := range f.conns {
		ac.c.Close()
	}
}

// Wire opcodes.
const (
	opRead  = 1
	opWrite = 2
	opSend  = 3
)

// Payload modes.
const (
	payloadBytes = 0
	payloadStamp = 1
)

func (f *TCPFabric) dial(remote string) (*agentConn, error) {
	f.mu.Lock()
	if ac, ok := f.conns[remote]; ok {
		f.mu.Unlock()
		return ac, nil
	}
	addr, ok := f.peers[remote]
	f.mu.Unlock()
	if !ok {
		return nil, fmt.Errorf("%w: %s", ErrNoRoute, remote)
	}
	c, err := net.Dial("tcp", addr)
	if err != nil {
		return nil, fmt.Errorf("rdma: dial agent %s: %w", remote, err)
	}
	ac := &agentConn{c: c}
	f.mu.Lock()
	if prev, ok := f.conns[remote]; ok {
		f.mu.Unlock()
		c.Close()
		return prev, nil
	}
	f.conns[remote] = ac
	f.mu.Unlock()
	return ac, nil
}

// Read pulls r into l by asking the remote agent for the region content.
// The reply streams from the socket into the local region through a
// pooled staging buffer; no frame-sized buffer is ever allocated.
func (f *TCPFabric) Read(env sim.Env, local *Node, l Slice, r RemoteSlice) error {
	if l.Len != r.Len {
		return fmt.Errorf("rdma: length mismatch: local %d, remote %d", l.Len, r.Len)
	}
	lmr, err := local.lookup(l.MR.RKey, l.Off, l.Len)
	if err != nil {
		return err
	}
	ac, err := f.dial(r.MR.Node)
	if err != nil {
		return err
	}
	ac.mu.Lock()
	defer ac.mu.Unlock()
	req := regionRequest(opRead, r)
	if err := writeFrame(ac.c, req[:]); err != nil {
		return err
	}
	body, err := readReplyStatus(ac.c, "read")
	if err != nil {
		return err
	}
	rejected, err := recvPayload(ac.c, lmr.Dev, lmr.Off+l.Off, l.Len, body)
	if err != nil {
		return err
	}
	return rejected
}

// Write pushes l into r by streaming the region content to the remote
// agent.
func (f *TCPFabric) Write(env sim.Env, local *Node, l Slice, r RemoteSlice) error {
	if l.Len != r.Len {
		return fmt.Errorf("rdma: length mismatch: local %d, remote %d", l.Len, r.Len)
	}
	lmr, err := local.lookup(l.MR.RKey, l.Off, l.Len)
	if err != nil {
		return err
	}
	ac, err := f.dial(r.MR.Node)
	if err != nil {
		return err
	}
	ac.mu.Lock()
	defer ac.mu.Unlock()
	req := regionRequest(opWrite, r)
	if err := sendPayload(ac.c, req[:], lmr.Dev, lmr.Off+l.Off, l.Len); err != nil {
		return err
	}
	body, err := readReplyStatus(ac.c, "write")
	if err != nil {
		return err
	}
	return discard(ac.c, body)
}

// regionRequest encodes the header of a READ or WRITE of r: opcode,
// rkey, offset, length.
func regionRequest(op byte, r RemoteSlice) [25]byte {
	var req [25]byte
	req[0] = op
	binary.LittleEndian.PutUint64(req[1:], r.MR.RKey)
	binary.LittleEndian.PutUint64(req[9:], uint64(r.Off))
	binary.LittleEndian.PutUint64(req[17:], uint64(r.Len))
	return req
}

// Send delivers payload to the remote node's (qp) receive queue.
func (f *TCPFabric) Send(env sim.Env, local *Node, remote, qp string, payload []byte, size int64) error {
	ac, err := f.dial(remote)
	if err != nil {
		return err
	}
	ac.mu.Lock()
	defer ac.mu.Unlock()
	req := make([]byte, 0, 64+len(payload))
	req = append(req, opSend)
	req = binary.LittleEndian.AppendUint16(req, uint16(len(qp)))
	req = append(req, qp...)
	req = binary.LittleEndian.AppendUint64(req, uint64(size))
	req = append(req, payload...)
	if err := writeFrame(ac.c, req); err != nil {
		return err
	}
	body, err := readReplyStatus(ac.c, "send")
	if err != nil {
		return err
	}
	return discard(ac.c, body)
}

// Recv blocks until a message for (local, qp) arrives.
func (f *TCPFabric) Recv(env sim.Env, local *Node, qp string) ([]byte, int64, error) {
	m, ok := f.box(local.name, qp).Recv(env)
	if !ok {
		return nil, 0, fmt.Errorf("rdma: recv on closed qp %s/%s", local.name, qp)
	}
	return m.payload, m.size, nil
}

func (f *TCPFabric) box(node, qp string) *sim.Mailbox[simMsg] {
	key := node + "/" + qp
	f.mu.Lock()
	defer f.mu.Unlock()
	b, ok := f.recvs[key]
	if !ok {
		b = sim.NewMailbox[simMsg](f.env)
		f.recvs[key] = b
	}
	return b
}

// serveConn handles one peer connection against node's MR table.
func (f *TCPFabric) serveConn(n *Node, c net.Conn) {
	defer c.Close()
	for f.serveOne(n, c) == nil {
	}
}

// serveOne answers one request frame. READ replies and WRITE payloads
// stream between the socket and the MR's device region; every other
// request is small and read whole. A returned error means the
// connection is unusable.
func (f *TCPFabric) serveOne(n *Node, c net.Conn) error {
	size, err := readFrameHeader(c)
	if err != nil {
		return err
	}
	if size == 0 {
		return writeFrame(c, failReply(fmt.Errorf("empty request")))
	}
	var op [1]byte
	if _, err := io.ReadFull(c, op[:]); err != nil {
		return err
	}
	rest := size - 1
	if op[0] == opWrite && rest > 24 {
		return serveWrite(n, c, rest)
	}
	if rest > maxSmallFrame {
		return fmt.Errorf("rdma: oversized frame (%d bytes)", size)
	}
	req := make([]byte, rest)
	if _, err := io.ReadFull(c, req); err != nil {
		return fmt.Errorf("rdma: read frame body: %w", err)
	}
	if op[0] == opRead && len(req) >= 24 {
		rkey, off, length := parseRegion(req)
		mr, err := n.lookup(rkey, off, length)
		if err != nil {
			return writeFrame(c, failReply(err))
		}
		return sendPayload(c, []byte{0}, mr.Dev, mr.Off+off, length)
	}
	return writeFrame(c, f.handle(n, op[0], req))
}

// serveWrite answers a WRITE whose body (rest bytes after the opcode)
// carries a region payload, streaming it into the MR's device region.
func serveWrite(n *Node, c net.Conn, rest int64) error {
	var hdr [24]byte
	if _, err := io.ReadFull(c, hdr[:]); err != nil {
		return err
	}
	rkey, off, length := parseRegion(hdr[:])
	mr, err := n.lookup(rkey, off, length)
	if err != nil {
		if err := discard(c, rest-24); err != nil {
			return err
		}
		return writeFrame(c, failReply(err))
	}
	rejected, err := recvPayload(c, mr.Dev, mr.Off+off, length, rest-24)
	if err != nil {
		return err
	}
	if rejected != nil {
		return writeFrame(c, failReply(rejected))
	}
	return writeFrame(c, []byte{0})
}

// handle answers the requests that carry no region payload: SEND and
// malformed or unknown ones.
func (f *TCPFabric) handle(n *Node, op byte, req []byte) []byte {
	switch op {
	case opRead:
		return failReply(fmt.Errorf("short read request"))
	case opWrite:
		return failReply(fmt.Errorf("short write request"))
	case opSend:
		if len(req) < 2 {
			return failReply(fmt.Errorf("short send request"))
		}
		qpLen := int(binary.LittleEndian.Uint16(req))
		if len(req) < 2+qpLen+8 {
			return failReply(fmt.Errorf("short send request"))
		}
		qp := string(req[2 : 2+qpLen])
		size := int64(binary.LittleEndian.Uint64(req[2+qpLen:]))
		payload := req[2+qpLen+8:]
		f.box(n.name, qp).Send(f.env, simMsg{payload: payload, size: size})
		return []byte{0}
	default:
		return failReply(fmt.Errorf("unknown op %d", op))
	}
}

func failReply(err error) []byte { return append([]byte{1}, err.Error()...) }

// parseRegion decodes the (rkey, offset, length) triple of a READ or
// WRITE request.
func parseRegion(p []byte) (rkey uint64, off, length int64) {
	return binary.LittleEndian.Uint64(p),
		int64(binary.LittleEndian.Uint64(p[8:])),
		int64(binary.LittleEndian.Uint64(p[16:]))
}

// maxSmallFrame bounds the frames read whole: requests, SENDs and
// replies without a region payload.
const maxSmallFrame = 1 << 30

// stageSize is the staging-buffer size for streamed region payloads:
// large enough to amortize syscalls and device locking, small enough to
// stay cache-resident.
const stageSize = 256 << 10

// stagePool recycles staging buffers across requests and connections,
// so a connection holds none while idle.
var stagePool = sync.Pool{New: func() any { return new([stageSize]byte) }}

// sendPayload writes one frame: prefix, then the content of a device
// region — raw bytes for materialized devices, streamed through a
// pooled staging buffer, or an 8-byte stamp for virtual ones. The
// device is never locked across a socket write, so a peer writing into
// the same device cannot stall the stream.
func sendPayload(w io.Writer, prefix []byte, dev *memdev.Device, off, n int64) error {
	if !dev.Materialized() {
		frame := make([]byte, 0, len(prefix)+9)
		frame = append(frame, prefix...)
		frame = append(frame, payloadStamp)
		return writeFrame(w, binary.LittleEndian.AppendUint64(frame, dev.StampOf(off, n)))
	}
	size := int64(len(prefix)) + 1 + n
	if size > math.MaxUint32 {
		return fmt.Errorf("rdma: %d-byte region exceeds one frame", n)
	}
	buf := stagePool.Get().(*[stageSize]byte)
	defer stagePool.Put(buf)
	p := binary.LittleEndian.AppendUint32(buf[:0], uint32(size))
	p = append(p, prefix...)
	p = append(p, payloadBytes)
	// The frame header rides at the front of the first chunk.
	for done, hdr := int64(0), int64(len(p)); ; hdr = 0 {
		k := min(n-done, stageSize-hdr)
		dev.Read(off+done, buf[hdr:hdr+k])
		if _, err := w.Write(buf[:hdr+k]); err != nil {
			return fmt.Errorf("rdma: write frame: %w", err)
		}
		if done += k; done == n {
			return nil
		}
	}
}

// recvPayload reads the last body bytes of a frame, a region payload
// (mode byte, then content), into [off, off+n) of dev. Raw bytes stream
// from the socket through a pooled staging buffer. The payload length
// is checked against the region before any content is read; a payload
// the region cannot take is drained and returned as rejected, leaving
// the stream at the next frame. err is a transport failure, after which
// the stream is unusable.
func recvPayload(r io.Reader, dev *memdev.Device, off, n, body int64) (rejected, err error) {
	if body < 1 {
		return fmt.Errorf("rdma: empty payload"), nil
	}
	var mode [1]byte
	if _, err := io.ReadFull(r, mode[:]); err != nil {
		return nil, fmt.Errorf("rdma: read frame body: %w", err)
	}
	body--
	switch {
	case mode[0] == payloadBytes && !dev.Materialized():
		rejected = fmt.Errorf("%w: raw bytes for virtual device %s", ErrModeMismatch, dev.Name())
	case mode[0] == payloadBytes && body != n:
		rejected = fmt.Errorf("rdma: payload length %d, want %d", body, n)
	case mode[0] == payloadStamp && dev.Materialized():
		rejected = fmt.Errorf("%w: stamp for materialized device %s", ErrModeMismatch, dev.Name())
	case mode[0] == payloadStamp && body != 8:
		rejected = fmt.Errorf("rdma: bad stamp payload length %d", body+1)
	case mode[0] != payloadBytes && mode[0] != payloadStamp:
		rejected = fmt.Errorf("rdma: unknown payload mode %d", mode[0])
	}
	if rejected != nil {
		return rejected, discard(r, body)
	}
	if mode[0] == payloadStamp {
		var stamp [8]byte
		if _, err := io.ReadFull(r, stamp[:]); err != nil {
			return nil, fmt.Errorf("rdma: read frame body: %w", err)
		}
		dev.WriteStamp(off, n, binary.LittleEndian.Uint64(stamp[:]))
		return nil, nil
	}
	buf := stagePool.Get().(*[stageSize]byte)
	defer stagePool.Put(buf)
	for done := int64(0); done < n; {
		k := min(n-done, stageSize)
		if _, err := io.ReadFull(r, buf[:k]); err != nil {
			return nil, fmt.Errorf("rdma: read frame body: %w", err)
		}
		dev.Write(off+done, buf[:k])
		done += k
	}
	return nil, nil
}

// readReplyStatus reads a reply frame's header and status byte. On
// success it returns the length of the rest of the body, left unread;
// a failure reply is read whole and returned as the remote's error.
func readReplyStatus(r io.Reader, verb string) (int64, error) {
	size, err := readFrameHeader(r)
	if err != nil {
		return 0, err
	}
	if size == 0 {
		return 0, fmt.Errorf("rdma: empty reply frame")
	}
	var status [1]byte
	if _, err := io.ReadFull(r, status[:]); err != nil {
		return 0, fmt.Errorf("rdma: read frame body: %w", err)
	}
	if status[0] == 0 {
		return size - 1, nil
	}
	if size-1 > maxSmallFrame {
		return 0, fmt.Errorf("rdma: oversized frame (%d bytes)", size)
	}
	msg := make([]byte, size-1)
	if _, err := io.ReadFull(r, msg); err != nil {
		return 0, fmt.Errorf("rdma: read frame body: %w", err)
	}
	return 0, fmt.Errorf("rdma: remote %s: %s", verb, msg)
}

// discard skips n bytes of the stream.
func discard(r io.Reader, n int64) error {
	if _, err := io.CopyN(io.Discard, r, n); err != nil {
		return fmt.Errorf("rdma: read frame body: %w", err)
	}
	return nil
}

// writeFrame writes a length-prefixed frame.
func writeFrame(w io.Writer, p []byte) error {
	var hdr [4]byte
	binary.LittleEndian.PutUint32(hdr[:], uint32(len(p)))
	if _, err := w.Write(hdr[:]); err != nil {
		return fmt.Errorf("rdma: write frame header: %w", err)
	}
	if _, err := w.Write(p); err != nil {
		return fmt.Errorf("rdma: write frame body: %w", err)
	}
	return nil
}

// readFrameHeader reads a frame's length prefix.
func readFrameHeader(r io.Reader) (int64, error) {
	var hdr [4]byte
	if _, err := io.ReadFull(r, hdr[:]); err != nil {
		return 0, err
	}
	return int64(binary.LittleEndian.Uint32(hdr[:])), nil
}
