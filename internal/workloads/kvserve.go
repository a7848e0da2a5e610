package workloads

import (
	"repro/internal/ir"
)

// This file builds the request-serving variant of the §6.1 key-value
// case study used by internal/serve: instead of pre-generating the
// whole request stream into a global (the batch-oriented Memcached
// program above), the server program processes whatever batch of
// requests the host pokes into its request buffer before each run.
// One machine run == one batch of requests on one warm VM instance.
//
// The reply to each request is a *pure* function of the request word
// (KVReference implements the same arithmetic host-side), which is
// what lets the serving layer and the load generator detect silently
// corrupted responses exactly, request by request, while an SEU
// campaign is running. The hash-table traffic is still real — every
// request hashes its key and goes through the table with atomics, as
// in the Memcached program — but the table contributes to a separate
// state checksum, not to the replies.

// Names of the KV server program's host-visible globals; resolve their
// addresses with Module.Global(...).Addr after hardening (the pass
// pipeline preserves the global layout).
const (
	KVReqsGlobal    = "kv_reqs"
	KVNReqGlobal    = "kv_nreq"
	KVRepliesGlobal = "kv_replies"
	KVStateGlobal   = "kv_state"
)

// KVServeConfig parameterizes the serving program.
type KVServeConfig struct {
	// MaxBatch is the capacity of the request/reply buffers (the
	// serving layer never runs a larger batch in one go).
	MaxBatch int
	// Records is the key range; keys are hashed into a table of the
	// next power of two buckets.
	Records int
	// ValueWork is the number of value (de)serialization mixing rounds
	// per request (4 ≈ 32 B values, as in §6.1).
	ValueWork int
}

// DefaultKVServeConfig mirrors the §6.1 Memcached setup at serving
// granularity.
func DefaultKVServeConfig() KVServeConfig {
	return KVServeConfig{MaxBatch: 64, Records: 1024, ValueWork: 4}
}

// KVRequestWord packs a protocol request into the 64-bit request word
// the server program consumes: bit 63 = write, bits 62..32 = the
// client-supplied value (writes), bits 31..0 = the key.
func KVRequestWord(write bool, key, value uint64) uint64 {
	w := (key & 0xFFFFFFFF) | (value&0x7FFFFFFF)<<32
	if write {
		w |= 1 << 63
	}
	return w
}

// KVReference computes the correct reply for a request word — the same
// arithmetic the IR handler performs, so the host can verify every
// reply byte-for-byte.
func KVReference(req uint64, valueWork int) uint64 {
	key := req & 0xFFFFFFFF
	h1 := (req &^ (1 << 63)) * 0x9E3779B97F4A7C15
	v := h1
	for r := uint64(0); r < uint64(valueWork); r++ {
		m1 := v * 0x5851F42D
		v = (m1 ^ (m1 >> 17)) + r
	}
	return v ^ key
}

// KVServe builds the single-threaded request-serving KV program. The
// host writes the batch size into kv_nreq and the request words into
// kv_reqs before each run, and reads the replies out of kv_replies
// after; a checksum of the replies is externalized through out, and
// every reply is additionally pushed through sys.write so each
// recovery transaction stays bounded to roughly one request.
func KVServe(cfg KVServeConfig) *Program {
	if cfg.MaxBatch <= 0 {
		cfg.MaxBatch = 64
	}
	if cfg.Records <= 0 {
		cfg.Records = 1024
	}
	if cfg.ValueWork <= 0 {
		cfg.ValueWork = 4
	}
	buckets := int64(1)
	for buckets < int64(cfg.Records)*2 {
		buckets *= 2
	}

	m := ir.NewModule()
	// The handler never mallocs; a small heap keeps each warm-pool
	// machine's memory small.
	m.HeapBytes = 1 << 14
	reqs := m.AddGlobal(KVReqsGlobal, int64(cfg.MaxBatch)*8)
	reqs.Align = 64
	nreq := m.AddGlobal(KVNReqGlobal, 8)
	replies := m.AddGlobal(KVRepliesGlobal, int64(cfg.MaxBatch)*8)
	replies.Align = 64
	table := m.AddGlobal("kv_table", buckets*8)
	table.Align = 64
	state := m.AddGlobal(KVStateGlobal, 8)
	m.Layout()

	// kv_handle: hash the key, (de)serialize the value, access the
	// table, and return the pure reply. Same shape as mc_handle but
	// with the table feeding kv_state instead of the reply.
	//
	// Every logical statement is stamped with a pseudo-source line
	// (statement index within the function) so flight-bundle replay can
	// localize a fault to "kv_handle:<line>", not just a function; the
	// hardening passes copy the line onto replicated/check instructions
	// and the printed IR omits lines, so stamping cannot perturb
	// program hashes or execution.
	hb := newWorker("kv_handle", 1)
	hl := stmtLines(hb)
	req := hb.Param(0)
	hl()
	isW := hb.Shr(ir.Reg(req), ir.ConstInt(63))
	hl()
	key := hb.And(ir.Reg(req), ir.ConstUint(0xFFFFFFFF))
	hl()
	payload := hb.And(ir.Reg(req), ir.ConstUint(^uint64(0)>>1))
	hl()
	h1 := hb.Mul(ir.Reg(payload), ir.ConstUint(0x9E3779B97F4A7C15))
	hl()
	h2 := hb.Shr(ir.Reg(h1), ir.ConstInt(32))
	hl()
	bkt := hb.And(ir.Reg(h2), ir.ConstInt(buckets-1))
	hl()
	vA := hb.FrameAddr(hb.Alloca(8))
	hb.Store(ir.Reg(vA), ir.Reg(h1))
	hl()
	hb.countedLoop(ir.ConstInt(0), ir.ConstInt(int64(cfg.ValueWork)), 1, func(r ir.ValueID) {
		hl()
		v := hb.Load(ir.Reg(vA))
		hl()
		m1 := hb.Mul(ir.Reg(v), ir.ConstInt(0x5851F42D))
		hl()
		s1 := hb.Shr(ir.Reg(m1), ir.ConstInt(17))
		hl()
		x1 := hb.Xor(ir.Reg(m1), ir.Reg(s1))
		hl()
		a1 := hb.Add(ir.Reg(x1), ir.Reg(r))
		hl()
		hb.Store(ir.Reg(vA), ir.Reg(a1))
	})
	hl()
	val := hb.Load(ir.Reg(vA))
	hl()
	slotAddr := hb.addr(ir.ConstUint(table.Addr), bkt, 8, 0)
	wBlk := hb.Block("put")
	rBlk := hb.Block("get")
	retBlk := hb.Block("reply")
	hl()
	hb.Br(ir.Reg(isW), wBlk, rBlk)
	hb.SetBlock(wBlk)
	hl()
	hb.AStore(ir.Reg(slotAddr), ir.Reg(val))
	hb.Jmp(retBlk)
	hb.SetBlock(rBlk)
	hl()
	got := hb.ALoad(ir.Reg(slotAddr))
	hl()
	st := hb.Load(ir.ConstUint(state.Addr))
	hl()
	sx := hb.Xor(ir.Reg(st), ir.Reg(got))
	hl()
	hb.Store(ir.ConstUint(state.Addr), ir.Reg(sx))
	hb.Jmp(retBlk)
	hb.SetBlock(retBlk)
	hl()
	reply := hb.Xor(ir.Reg(val), ir.Reg(key))
	hl()
	hb.Ret(ir.Reg(reply))
	handler := hb.Done()
	handler.Attrs.Local = true
	handler.Attrs.EventHandler = true
	m.AddFunc(handler)

	b := newWorker("kv_main", 0)
	ml := stmtLines(b)
	ml()
	n := b.Load(ir.ConstUint(nreq.Addr))
	ml()
	accA := b.FrameAddr(b.Alloca(8))
	b.Store(ir.Reg(accA), ir.ConstInt(0))
	ml()
	b.countedLoop(ir.ConstInt(0), ir.Reg(n), 1, func(i ir.ValueID) {
		ml()
		ra := b.addr(ir.ConstUint(reqs.Addr), i, 8, 0)
		ml()
		rw := b.Load(ir.Reg(ra))
		ml()
		reply := b.Call("kv_handle", ir.Reg(rw))
		ml()
		pa := b.addr(ir.ConstUint(replies.Addr), i, 8, 0)
		ml()
		b.Store(ir.Reg(pa), ir.Reg(reply))
		ml()
		acc := b.Load(ir.Reg(accA))
		ml()
		m1 := b.Mul(ir.Reg(acc), ir.ConstInt(31))
		ml()
		ns := b.Add(ir.Reg(m1), ir.Reg(reply))
		ml()
		b.Store(ir.Reg(accA), ir.Reg(ns))
		// Per-request send: bounds each recovery transaction to ~one
		// request, exactly like the Memcached program's reply flushes.
		ml()
		b.CallVoid("sys.write", ir.Reg(pa), ir.ConstInt(8))
	})
	ml()
	fv := b.Load(ir.Reg(accA))
	b.Out(ir.Reg(fv))
	ml()
	b.Ret()
	worker := b.Done()
	worker.Attrs.EventHandler = true
	return finishProgram(m, worker, nil, 300)
}

// KVReplyChecksum folds a reply stream the way kv_main's accumulator
// does, so callers can check the externalized batch checksum.
func KVReplyChecksum(replies []uint64) uint64 {
	var acc uint64
	for _, r := range replies {
		acc = acc*31 + r
	}
	return acc
}
