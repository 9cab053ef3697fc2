/* Compiled event kernel of the simulator (repro.sim.vec.kernel).
 *
 * The ``Kernel`` object owns the pending-event set (see "event set"
 * below) *and* every piece of mutable simulation state the opcode
 * handlers touch.  ``KernelEngine`` builds it once from the read-only
 * wiring in ``SoAState`` (repro/sim/vec/state.py), int32 arrays whose
 * buffers ``Kernel_init`` copies whole (``st_ints``):
 *
 * - per-port, per-port-VC, per-input and per-NIC scalars are typed C
 *   arrays indexed by the wiring's flat ids (port gid, ``gid * V + vc``,
 *   input gid, node);
 * - output queues, input-VC queues, the pending-input lists and the NIC
 *   queues are growable C ring buffers.  A NIC queue holds one entry
 *   per message, from open-loop traffic, a closed-loop driver or a
 *   finite exchange alike, and the NIC cuts one packet off its head
 *   entry per send (``nic_send``);
 * - credit arrivals are FIFOs of ``(time, seq)`` keys that hold only the
 *   credits still on the wire, plus a per-VC *matured* count of arrivals
 *   whose key has passed but that are not yet materialised into the
 *   credit count (``credit_push`` / ``credit_drain``);
 * - packets are slots of at most 88 bytes of plain C data, handed out
 *   from pages that are never moved or written ahead of use, and
 *   recycled on delivery.  A slot holds the hop cursor, the output-port
 *   index (uint16) and VC (uint8) of every hop -- inline for routes of
 *   up to SLOT_INLINE ports, in one spilled block beyond -- the route
 *   kind (an index into the collector's kind vocabulary), endpoints,
 *   size, times and the message id (an integer, -1 for none).  It does
 *   not store routers: a Packet built for a listener derives them from
 *   the ports through the wiring;
 * - routes come from an integer route table built from the wiring's
 *   ``row_port`` (see "route table" below), so the fast path composes
 *   them without a Python object; ``RouteCache`` is called only for the
 *   pairs the table cannot serve;
 * - open-loop streams are drawn here for the patterns in the pattern
 *   table (see "traffic generation"): each node holds a chunk of at
 *   most GEN_CHUNK (time, destination) entries that its GEN events
 *   refill, and a C-seeded copy of its private ``random.Random`` only
 *   until its stream reaches the horizon (the nodes are seeded
 *   MT_BATCH at a time, see ``mt_seed``);
 * - every send and every delivery is accounted here, whichever path
 *   routed the packet and whether or not listeners observe it.  The
 *   ``StatsCollector``'s counters, window, first and last times,
 *   per-node eject counts and per-kind totals, and ``Network._pid``,
 *   are written in place through buffer views bound at build, so
 *   Python reads them correct at every moment.  Only the in-window
 *   latencies collect in one fixed block of the kernel's own, handed to
 *   the collector as raw bytes when it fills and when a run returns;
 *   the module's window_reduce (see "the latency window's reduction")
 *   reduces them to the window's mean and p99 as numpy would, bit for
 *   bit, so a kernel run imports no numpy;
 * - a closed-loop driver's message countdown (see "message countdown")
 *   decrements per-message packet counts on every delivery, counts the
 *   packet in its message group's row of a kind table, writes each
 *   message's completion time into its table and calls back into
 *   Python only for a completed message that releases others;
 * - link faults (see "fault diverts"): dead ports, the per-source BFS
 *   trees of the route table's detours, and, while a run binds the
 *   FaultManager, a copy of its reroute RNG and a view of its reroute
 *   and drop counts.  A packet headed for a dead port is rerouted or
 *   dropped here, with no Python call.
 *
 * Neither a NIC queue entry nor a slot holds a Python object, so the
 * send and delivery paths take no references and the GC traversal does
 * not grow with the traffic.  A ``repro.sim.packet.Packet`` exists only
 * while Python has to see one: the make_packet escape, whose Packet the
 * kernel drops once it has loaded the route, and a delivery while
 * ``Network`` has delivery listeners (the tracer, an exchange's message
 * tracking and the checker are listeners too; DELIVER builds one new
 * Packet for them and calls them itself, in registration order).  With
 * no listener registered the RECV, ENTER, PWAKE, NWAKE, GEN and DELIVER
 * handlers allocate no Python objects, and the kernel's memory scales
 * with the packets and credits in flight rather than with the packets,
 * hops and simulated time of the whole run.
 *
 * Event set: four FIFO *delay lanes* plus a binary heap of 32-byte
 * event records.  Most pushes land at the current time plus one of four
 * fixed delays with a freshly reserved sequence number -- serialisation
 * (SER: NIC and port link-free wakes), link (LINK: credit-arrival
 * wakes), both (SER+LINK: RECV and DELIVER) and switch (SWITCH: ENTER)
 * -- so each delay's pushes already arrive in ``(time, seq)`` order and
 * a FIFO per delay keeps them sorted at O(1).  Every push site names its
 * lane; a lane takes the event only if it does not sort before the
 * lane's tail, so every lane stays sorted under any physics (zero
 * delays, coinciding lanes, a clock set by Python).  Everything else --
 * GEN, CALL, wakes at older reserved keys and pushes from
 * ``drain_port`` -- goes to the heap.  A pop takes the
 * least ``(time, seq)`` among the lane heads and the heap top, which is
 * the global order of one heap holding every event.  A CALL's callable
 * and arguments live in a side table indexed by the record's ``a``.
 *
 * Exactness contract (the elision model in repro/sim/vec/kernel.py):
 * every handler reserves sequence numbers in the object engine's order,
 * compares busy keys and drains credits lazily with the same key tests,
 * and forms every timestamp with the same float additions.  The event
 * set pops in global ``(time, seq)`` order: pushes are never at or
 * before the executing key, and the only same-key collisions are
 * duplicate wake records of one port or NIC, whose relative order is
 * immaterial (a spurious wake re-checks state and no-ops).  The golden
 * conformance suite, the RNG-parity tests and the cross-backend fuzz
 * harness hold the kernel to the object engine bit for bit.
 */
#define PY_SSIZE_T_CLEAN
#include <Python.h>
#include <structmember.h>
#include <stdint.h>
#include <stdlib.h>
#include <string.h>
#include <math.h>
#include <time.h>

/* Event opcodes -- must match repro/sim/vec/kernel.py. */
enum {
    OP_RECV = 0,    /* a=input gid, b=vc, c=slot -- arrival at an input */
    OP_ENTER = 1,   /* a=port-vc id, b=slot, c=port gid -- enter an OQ */
    OP_PWAKE = 2,   /* a=port gid -- elided link-free/credit retry */
    OP_DELIVER = 3, /* c=slot -- the packet reaches its NIC */
    OP_NWAKE = 4,   /* a=node -- elided NIC link-free/credit retry */
    OP_GEN = 5,     /* a=node -- the node's next open-loop stream entry */
    OP_CALL = 6,    /* fn(*args) -- generic scheduled callback */
    OP_COUNT = 7
};

/* Python-escape slots for the --profile split. */
enum { ESC_MAKE = 0, ESC_DELIVER = 1, ESC_CALL = 2, ESC_FLUSH = 3,
       ESC_FILL = 4, ESC_DONE = 5, ESC_N = 6 };

/* Fast-path counters (per-packet work kept fully in C). */
enum { FAST_MAKE = 0, FAST_DELIVER = 1, FAST_N = 2 };

/* Delay lanes of the event set; LANE_HEAP names the heap. */
enum { LANE_SER = 0, LANE_LINK = 1, LANE_SL = 2, LANE_SWITCH = 3,
       NLANES = 4, LANE_HEAP = NLANES };

/* One in SAMPLE_EVERY events times its pop and its handler. */
#define SAMPLE_EVERY 64

typedef struct {
    double t;
    long long seq;
    int32_t op;
    int32_t a, b, c; /* OP_CALL: a indexes the call table */
} Event;

/* A scheduled CALL's callable and arguments (both owned); a free
 * record has fn == NULL and links the free list through ``next``
 * (index + 1, 0 ends the list). */
typedef struct {
    PyObject *fn;
    PyObject *args;
    int32_t next;
} CallRec;

/* -- MT19937: a bit-exact replica of CPython's random.Random core ---------
 *
 * Two kinds of stream are drawn in C.  The route fast path must consume
 * the *same* draw stream as the routing algorithms' ``random.Random``
 * instances: the engines' bit-identity contract pins every selection to
 * the shared seeded stream, and the Python objects draw again once the
 * run is over.  So that generator state is *imported* from
 * ``Random.getstate()`` at run start and *exported* back via
 * ``Random.setstate()`` at run end (``CRng``); in between no Python code
 * draws from these streams: every NIC send, including one submitted
 * from a scheduled CALL, routes in C.  Open-loop traffic draws from one
 * private ``random.Random(seed)`` per node that no Python code ever
 * sees, so those states are *seeded* here (``mt_seed``, a batch of
 * nodes at a time) and never leave C.  The seeding, the tempering
 * constants, the rejection loop and the
 * float derivations below must match Modules/_randommodule.c and
 * Lib/random.py draw for draw -- tests/test_kernel_rng_parity.py
 * asserts it per draw site.
 */

#define MT_N 624
#define MT_M 397
#define MT_MATRIX_A 0x9908b0dfUL
#define MT_UPPER_MASK 0x80000000UL
#define MT_LOWER_MASK 0x7fffffffUL

typedef struct {
    uint32_t mt[MT_N];
    int mti;
} MT;

typedef struct {
    MT g;
    PyObject *obj;   /* the random.Random instance (owned while imported) */
    PyObject *gauss; /* getstate()'s third element, round-tripped (owned) */
} CRng;

static uint32_t
mt_next(MT *r)
{
    uint32_t y;
    static const uint32_t mag01[2] = {0x0UL, MT_MATRIX_A};
    uint32_t *mt = r->mt;
    if (r->mti >= MT_N) {
        int kk;
        for (kk = 0; kk < MT_N - MT_M; kk++) {
            y = (mt[kk] & MT_UPPER_MASK) | (mt[kk + 1] & MT_LOWER_MASK);
            mt[kk] = mt[kk + MT_M] ^ (y >> 1) ^ mag01[y & 0x1UL];
        }
        for (; kk < MT_N - 1; kk++) {
            y = (mt[kk] & MT_UPPER_MASK) | (mt[kk + 1] & MT_LOWER_MASK);
            mt[kk] = mt[kk + (MT_M - MT_N)] ^ (y >> 1) ^ mag01[y & 0x1UL];
        }
        y = (mt[MT_N - 1] & MT_UPPER_MASK) | (mt[0] & MT_LOWER_MASK);
        mt[MT_N - 1] = mt[MT_M - 1] ^ (y >> 1) ^ mag01[y & 0x1UL];
        r->mti = 0;
    }
    y = mt[r->mti++];
    y ^= (y >> 11);
    y ^= (y << 7) & 0x9d2c5680UL;
    y ^= (y << 15) & 0xefc60000UL;
    y ^= (y >> 18);
    return y;
}

/* Generators seeded together: init_by_array's chains for different
 * seeds are independent, so MT_BATCH of them run interleaved. */
#define MT_BATCH 8

/* random.Random(seeds[i]) into *rs[i], for each of *n* ints
 * 0 <= seed < 2**64: init_by_array over the seed's 32-bit words, least
 * significant first, with as many words as the seed needs (one when
 * the high word is 0, so seed 0 is one zero word).  Every seed starts
 * from the init_genrand(19650218) state, drawn once per call; then
 * MT_BATCH seeds at a time mix their keys into it side by side, state
 * word i of seed l at w[i][l], so the words of one step sit together
 * (a batch's unused lanes mix seed 0 and are discarded).  This is the
 * kernel's one seeding routine: a single generator is a batch of one. */
static void
mt_seed(MT *const *rs, const uint64_t *seeds, long n)
{
    uint32_t init[MT_N];
    init[0] = 19650218U;
    for (uint32_t i = 1; i < MT_N; i++)
        init[i] = 1812433253U * (init[i - 1] ^ (init[i - 1] >> 30)) + i;
    for (long b = 0; b < n; b += MT_BATCH) {
        long m = n - b < MT_BATCH ? n - b : MT_BATCH;
        uint32_t w[MT_N][MT_BATCH], add[2][MT_BATCH];
        /* Step s of the key loop adds key[j] + j with j = s % nkey:
         * the low word at even steps, and at odd steps the high word
         * plus one for a two-word key, the low word again for one. */
        for (long l = 0; l < MT_BATCH; l++) {
            uint64_t s = l < m ? seeds[b + l] : 0;
            uint32_t lo = (uint32_t)s, hi = (uint32_t)(s >> 32);
            add[0][l] = lo;
            add[1][l] = hi ? hi + 1U : lo;
        }
        for (int i = 0; i < MT_N; i++)
            for (int l = 0; l < MT_BATCH; l++)
                w[i][l] = init[i];
        int i = 1;
        for (int s = 0; s < MT_N; s++) { /* max(MT_N, nkey) == MT_N */
            for (int l = 0; l < MT_BATCH; l++)
                w[i][l] = (w[i][l] ^ ((w[i - 1][l] ^ (w[i - 1][l] >> 30)) *
                                      1664525U)) + add[s & 1][l];
            if (++i >= MT_N) {
                memcpy(w[0], w[MT_N - 1], sizeof(w[0]));
                i = 1;
            }
        }
        for (int s = MT_N - 1; s; s--) {
            for (int l = 0; l < MT_BATCH; l++)
                w[i][l] = (w[i][l] ^ ((w[i - 1][l] ^ (w[i - 1][l] >> 30)) *
                                      1566083941U)) - (uint32_t)i;
            if (++i >= MT_N) {
                memcpy(w[0], w[MT_N - 1], sizeof(w[0]));
                i = 1;
            }
        }
        for (long l = 0; l < m; l++) {
            MT *r = rs[b + l];
            r->mt[0] = 0x80000000U;
            for (int j = 1; j < MT_N; j++)
                r->mt[j] = w[j][l];
            r->mti = MT_N;
        }
    }
}

/* random.getrandbits(k) for 0 < k <= 32. */
static inline uint32_t
mt_getrandbits(MT *r, int k)
{
    return mt_next(r) >> (32 - k);
}

/* random.random(): a 53-bit double from two words. */
static inline double
mt_random(MT *r)
{
    uint32_t a = mt_next(r) >> 5;
    uint32_t b = mt_next(r) >> 6;
    return (a * 67108864.0 + b) * (1.0 / 9007199254740992.0);
}

/* random.uniform(a, b); the kernel is built with -ffp-contract=off, so
 * the multiply and the add round separately, as in Python. */
static inline double
mt_uniform(MT *r, double a, double b)
{
    return a + (b - a) * mt_random(r);
}

/* random.expovariate(lambd), with libm's log as math.log calls it. */
static inline double
mt_expovariate(MT *r, double lambd)
{
    return -log(1.0 - mt_random(r)) / lambd;
}

/* Random._randbelow_with_getrandbits(n): k = n.bit_length() bits,
 * rejection-sampled.  Same draw count as the Python wrapper, including
 * the (never hot) n == 1 case that still consumes draws. */
static long
mt_randbelow(MT *r, long n)
{
    if (n <= 0)
        return 0; /* matches `if not n: return 0` (no draw) */
    int k = 0;
    unsigned long un = (unsigned long)n;
    while (un) {
        un >>= 1;
        k += 1;
    }
    uint32_t v = mt_getrandbits(r, k);
    while ((long)v >= n)
        v = mt_getrandbits(r, k);
    return (long)v;
}

/* -- traffic generation ------------------------------------------------------
 *
 * ``run_synthetic`` gives every node a private ``random.Random`` seeded
 * from one master stream; the object engine's generate event for the
 * node draws ``pick_destination(node, rng)``, queues the packet, and
 * schedules the next event ``expovariate(1 / mean_ia)`` (or ``mean_ia``)
 * later, after a first event at ``uniform(0, mean_ia)``.  A pattern
 * whose ``pick_destination`` is one of three known implementations has
 * an entry in the pattern table (GenSpec) and its streams are drawn
 * here from a C-seeded copy of each node's generator (GenState): the
 * same draws in the same order, and the same float additions for the
 * times.  Every other pattern runs the object engine's own generate
 * events, as CALLs at the keys the GEN events would have taken
 * (``Network.run_synthetic``), so its draws happen in Python one event
 * at a time and a bad destination raises at the same simulated time on
 * both engines.
 *
 * A stream is a sequence of (time, dst) entries ending in one entry at
 * or past the horizon (dst -2), which is the object engine's last,
 * idle generate event; dst -1 is a draw that sent nothing.  Streams
 * drawn in C live in chunks of at most GEN_CHUNK entries: the GEN
 * handler refills a node's chunk when it has consumed it, and the node
 * drops its MT state as soon as the sentinel is written.  A stream that
 * fits one chunk is allocated at its exact length and holds no state.
 * ``gen_streams`` seeds the nodes MT_BATCH at a time and starts each
 * stream before seeding the next batch, so set-up holds at most one
 * batch of states beyond those the streams keep.
 */

enum { PAT_PERM = 1, PAT_UNIFORM = 2, PAT_HOTSPOT = 3 };

#define GEN_CHUNK 256

typedef struct {
    int pat, poisson;
    int32_t *tab; /* PAT_PERM: per-node dst (-1 idle); PAT_HOTSPOT: hotspots */
    long ntab;
    long n;       /* PAT_UNIFORM / PAT_HOTSPOT: the pattern's num_nodes */
    double hot, mean_ia, lambd, horizon;
} GenSpec;

typedef struct {
    MT mt;
    double t; /* time of the next entry, not yet written */
} GenState;

/* One pick_destination draw (validated when the table entry was made,
 * so every result is -1 or a node other than *node*). */
static inline int32_t
gen_pick(const GenSpec *g, MT *r, long node)
{
    long dst;
    if (g->pat == PAT_PERM)
        return g->tab[node];
    if (g->pat == PAT_HOTSPOT && mt_random(r) < g->hot) {
        dst = g->tab[mt_randbelow(r, g->ntab)];
        if (dst != node)
            return (int32_t)dst;
    }
    dst = mt_randbelow(r, g->n - 1); /* UniformRandom: skip the source */
    return (int32_t)(dst < node ? dst : dst + 1);
}

/* Write the next entries of *node*'s stream, at most *cap*, into
 * (gt, gd); returns how many.  Sets *done once the sentinel is out. */
static int32_t
gen_fill(const GenSpec *g, GenState *st, long node, double *gt, int32_t *gd,
         int32_t cap, int *done)
{
    int32_t n = 0;
    *done = 0;
    while (n < cap) {
        double t = st->t;
        if (!(t < g->horizon)) {
            gt[n] = t;
            gd[n++] = -2;
            *done = 1;
            break;
        }
        gt[n] = t;
        gd[n++] = gen_pick(g, &st->mt, node);
        st->t = t + (g->poisson ? mt_expovariate(&st->mt, g->lambd)
                                : g->mean_ia);
    }
    return n;
}

/* -- random.Random state handoff ------------------------------------------ */

/* Pull the MT state out of ``r->obj`` (a random.Random) so the fast
 * path can continue its draw stream in C.  ``r->obj`` must already be
 * set (owned); fills mt/mti and stashes the gauss element verbatim. */
static int
crng_import(CRng *r)
{
    PyObject *state = PyObject_CallMethod(r->obj, "getstate", NULL);
    if (state == NULL)
        return -1;
    PyObject *inner = NULL;
    int ok = 0;
    if (PyTuple_Check(state) && PyTuple_GET_SIZE(state) == 3) {
        long version = PyLong_AsLong(PyTuple_GET_ITEM(state, 0));
        if (version == -1 && PyErr_Occurred())
            PyErr_Clear();
        inner = PyTuple_GET_ITEM(state, 1);
        if (version == 3 && PyTuple_Check(inner) &&
            PyTuple_GET_SIZE(inner) == MT_N + 1)
            ok = 1;
    }
    if (!ok) {
        Py_DECREF(state);
        PyErr_SetString(PyExc_RuntimeError,
                        "kernel: unsupported random.Random state format");
        return -1;
    }
    for (int i = 0; i < MT_N; i++) {
        unsigned long w = PyLong_AsUnsignedLong(PyTuple_GET_ITEM(inner, i));
        if (w == (unsigned long)-1 && PyErr_Occurred()) {
            Py_DECREF(state);
            return -1;
        }
        r->g.mt[i] = (uint32_t)w;
    }
    long mti = PyLong_AsLong(PyTuple_GET_ITEM(inner, MT_N));
    if (mti == -1 && PyErr_Occurred()) {
        Py_DECREF(state);
        return -1;
    }
    r->g.mti = (int)mti;
    Py_XDECREF(r->gauss);
    r->gauss = PyTuple_GET_ITEM(state, 2);
    Py_INCREF(r->gauss);
    Py_DECREF(state);
    return 0;
}

/* *g* in the layout of ``Random.getstate()``. */
static PyObject *
mt_getstate(const MT *g, PyObject *gauss)
{
    PyObject *inner = PyTuple_New(MT_N + 1);
    if (inner == NULL)
        return NULL;
    for (int i = 0; i < MT_N; i++) {
        PyObject *w = PyLong_FromUnsignedLong((unsigned long)g->mt[i]);
        if (w == NULL) {
            Py_DECREF(inner);
            return NULL;
        }
        PyTuple_SET_ITEM(inner, i, w);
    }
    PyObject *w = PyLong_FromLong((long)g->mti);
    if (w == NULL) {
        Py_DECREF(inner);
        return NULL;
    }
    PyTuple_SET_ITEM(inner, MT_N, w);
    return Py_BuildValue("(lNO)", 3L, inner, gauss ? gauss : Py_None);
}

/* Push the (possibly advanced) MT state back into ``r->obj`` via
 * setstate, so Python-side draws resume exactly where C stopped. */
static int
crng_export(CRng *r)
{
    PyObject *state = mt_getstate(&r->g, r->gauss);
    if (state == NULL)
        return -1;
    /* "(O)": a bare "O" would splat the state tuple as the arg list. */
    PyObject *res = PyObject_CallMethod(r->obj, "setstate", "(O)", state);
    Py_DECREF(state);
    if (res == NULL)
        return -1;
    Py_DECREF(res);
    return 0;
}

static void
crng_drop(CRng *r)
{
    Py_CLEAR(r->obj);
    Py_CLEAR(r->gauss);
}

/* -- growable ring buffers ------------------------------------------------- */

typedef struct {
    int32_t *buf;
    int32_t head, len, cap; /* cap is 0 or a power of two */
} IRing;

typedef struct {
    double t;
    long long s;
} CKey;

typedef struct {
    CKey *buf;
    int32_t head, len, cap;
} KRing;

/* One queued NIC message: its post time (every packet's gen_time), the
 * bytes it has not sent yet, its id (-1 for none) and destination; no
 * Python object.  nic_send cuts one
 * pkt_bytes packet off the head entry, and an in-order entry stays at
 * the head until it is empty.  An interleaved entry that sent a packet
 * and has bytes left is marked turn_over, and the next send first moves
 * it to the tail: every message queued by then sends once before it
 * sends again (round robin, as concurrent non-blocking sends). */
typedef struct {
    double gen;
    long long left;
    long long msg_id; /* -1: none */
    int32_t dst;
    uint8_t interleave, turn_over;
} Desc;

_Static_assert(sizeof(Desc) == 32, "a NIC queue entry outgrew 32 bytes");

typedef struct {
    Desc *buf;
    int32_t head, len, cap;
} DRing;

/* A delay lane: events in (time, seq) order. */
typedef struct {
    Event *buf;
    int32_t head, len, cap;
} ERing;

#define RING_OPS(P, R, E)                                                 \
    static int P##_grow(R *r)                                             \
    {                                                                     \
        int32_t ncap = r->cap ? r->cap * 2 : 4;                           \
        E *nb = (E *)PyMem_Malloc((size_t)ncap * sizeof(E));              \
        if (nb == NULL) {                                                 \
            PyErr_NoMemory();                                             \
            return -1;                                                    \
        }                                                                 \
        for (int32_t i = 0; i < r->len; i++)                              \
            nb[i] = r->buf[(r->head + i) & (r->cap - 1)];                 \
        PyMem_Free(r->buf);                                               \
        r->buf = nb;                                                      \
        r->head = 0;                                                      \
        r->cap = ncap;                                                    \
        return 0;                                                         \
    }                                                                     \
    static inline int P##_push(R *r, E v)                                 \
    {                                                                     \
        if (r->len == r->cap && P##_grow(r) < 0)                          \
            return -1;                                                    \
        r->buf[(r->head + r->len) & (r->cap - 1)] = v;                    \
        r->len += 1;                                                      \
        return 0;                                                         \
    }                                                                     \
    static inline E *P##_at(R *r, int32_t i)                              \
    {                                                                     \
        return &r->buf[(r->head + i) & (r->cap - 1)];                     \
    }                                                                     \
    static inline E P##_pop(R *r)                                         \
    {                                                                     \
        E v = r->buf[r->head];                                            \
        r->head = (r->head + 1) & (r->cap - 1);                           \
        r->len -= 1;                                                      \
        return v;                                                         \
    }

RING_OPS(iring, IRing, int32_t)
RING_OPS(kring, KRing, CKey)
RING_OPS(dring, DRing, Desc)
RING_OPS(ering, ERing, Event)

/* -- packet slots ---------------------------------------------------------- */

/* Route entries a slot holds inline: every minimal and Valiant route of
 * a diameter-two topology (at most four router hops plus the ejection
 * port) and fault detours of up to seven hops. */
#define SLOT_INLINE 8

/* One packet in flight, plain C data.  The route is the output-port
 * index and the VC of every hop, the ejection port last (its VC is 0
 * unless the route labels that hop); a route of more than SLOT_INLINE
 * ports spills to one allocated block of nports ports followed by
 * nports VCs.  The routers are not stored: they follow from the source
 * node's router and the ports through the wiring (slot_route_tuples).
 * Ports fit uint16 and VCs uint8 because Kernel_init bounds the radix
 * and V. */
typedef struct {
    long long pid;
    double gen_time, send_time;
    long long size;
    long long msg_id; /* -1: none */
    int32_t src, dst;
    int32_t hop;      /* hop cursor; -1 while the slot is free */
    int32_t next;     /* free-list link */
    union {
        struct {
            uint16_t port[SLOT_INLINE];
            uint8_t vc[SLOT_INLINE];
        } in;          /* nports <= SLOT_INLINE */
        uint16_t *out; /* owned spill block */
    } r;
    uint16_t nports;  /* hop ports + the ejection port; 0 while unset */
    uint8_t kind;
} Slot;

_Static_assert(sizeof(Slot) <= 88, "a packet slot outgrew 88 bytes");

static inline uint16_t *
slot_ports(Slot *p)
{
    return p->nports <= SLOT_INLINE ? p->r.in.port : p->r.out;
}

static inline uint8_t *
slot_vcs(Slot *p)
{
    return p->nports <= SLOT_INLINE ? p->r.in.vc
                                    : (uint8_t *)(p->r.out + p->nports);
}

#define S_PORT(p, h) (slot_ports(p)[h])
#define S_VC(p, h) (slot_vcs(p)[h])

/* Slots live in pages of SLOT_PAGE that are never moved, so a Slot
 * pointer stays valid across any call that allocates a slot, and a
 * page is written only as its slots are first handed out. */
#define SLOT_SHIFT 10
#define SLOT_PAGE (1 << SLOT_SHIFT)
#define SLOT(k, si) \
    (&(k)->slot_pages[(si) >> SLOT_SHIFT][(si) & (SLOT_PAGE - 1)])

/* The message countdown's tables (Kernel.watch), in argument order:
 * per message, packets left (int32), release flag (one byte),
 * completion time (float64) and group id (int32); per group and route
 * kind, delivered packets (int64). */
enum { MV_LEFT = 0, MV_REL = 1, MV_TIME = 2, MV_GROUP = 3, MV_KIND = 4,
       MV_N = 5 };

/* -- the kernel object ------------------------------------------------------ */

typedef struct {
    PyObject_HEAD
    /* clock and sequence counter, shared with Python through members */
    double now;
    long long seq, cs, executed;
    int built, running;

    /* pending events: the delay lanes, the heap and the call table */
    ERing lanes[NLANES];
    Event *heap;
    Py_ssize_t heap_n, heap_cap;
    CallRec *calls;
    int32_t calls_n, calls_cap; /* records handed out, allocated */
    int32_t call_free;          /* free-list head + 1 (0: empty) */

    /* --profile accounting */
    unsigned long long op_counts[OP_COUNT];
    unsigned long long esc_counts[ESC_N];
    double esc_ns[ESC_N];
    unsigned long long fast_counts[FAST_N];
    unsigned long long lane_push[NLANES], heap_push;
    Py_ssize_t heap_hwm;
    unsigned long long smp_n, smp_op_n[OP_COUNT]; /* sampled events */
    double smp_pop_ns, smp_op_ns[OP_COUNT];
    double run_ns;
    unsigned long long runs;

    /* dimensions and physics constants */
    long V, NN, NR, NP, NI, OQ_CAP, VC_CAP, NIC_CAP;
    long pkt_bytes; /* the packets nic_send cuts (st.PKT_BYTES) */
    double SER, LINK, SWITCH, SL;

    /* read-only wiring */
    int32_t *p_off, *p_rid, *p_dest_in, *in_pbase, *in_up_port, *in_up_node;
    int32_t *n_in, *n_rid, *n_eject, *row_port;
    uint8_t *p_has_cred;

    /* per port (len NP) */
    double *p_busy_t;
    long long *p_busy_s, *p_sent;
    int32_t *p_queued, *p_rr, *p_oqtot;
    uint8_t *p_wake, *p_dead;
    IRing *p_pend; /* parked inputs, entries in_gid * V + vc */

    /* per port-VC (len NP * V) and input-VC (len NI * V) */
    int32_t *pv_occ, *pv_cred, *pv_mat;
    IRing *pv_oq;
    KRing *pv_arr;
    IRing *iv_q;

    /* per NIC (len NN) */
    double *n_busy_t;
    long long *n_busy_s, *n_stalls;
    int32_t *n_cred, *n_mat;
    long long *n_qp; /* packets the queued messages have left */
    uint8_t *n_wake;
    DRing *n_q;
    KRing *n_arr;

    /* open-loop streams (see "traffic generation"): per node, the
     * current chunk of (time, dst) entries, its cursor and length, and
     * the MT state while the node still draws in C */
    double **g_t;
    int32_t **g_d;
    int32_t *g_i, *g_n;
    GenState **g_st;
    GenSpec gen;
    long g_states;            /* nodes holding an MT state */
    int32_t g_chunk_max;      /* longest chunk allocated, in entries */
    unsigned long long g_refills;

    /* packet slots: pages, slots handed out, free list, live and peak
     * slots and spilled routes */
    Slot **slot_pages;
    int32_t npages, pages_cap;
    int32_t nslots, free_head, live, hwm;
    long spill_live, spill_hwm;
    int32_t arr_hwm, narr_hwm; /* longest router / NIC credit FIFO seen */

    /* bindings fixed at build time (bind_stats): the network, the
     * Packet class, its StatsCollector's absorb_kernel, kind_names and
     * kind_index, and writable views of the collector's per-node eject
     * counts (int64, len NN), counters (ST_* below), times (TM_* below)
     * and per-kind totals (int64, len nkind), and of Network._pid, the
     * last packet id handed out */
    PyObject *net, *packet_cls, *stats_absorb, *kind_names, *kind_intern;
    Py_buffer ejcnt_view, st_view, tm_view, kind_view, pid_view;
    long long *ejcnt, *st, *kind_tot, *last_pid;
    double *tm;
    Py_ssize_t nkind;
    int ki_min, ki_ind; /* indices of "minimal" / "indirect" */

    /* message countdown (see "message countdown"): views of the watched
     * tables (MV_*), their items, and the completion callback */
    Py_buffer m_view[MV_N]; /* .obj NULL: disarmed */
    Py_ssize_t m_n, m_ngroups;
    int32_t *m_left;
    const unsigned char *m_rel;
    double *m_time;
    const int32_t *m_group;
    long long *m_tally; /* m_ngroups rows of nkind */
    PyObject *m_done;

    /* route table (see "route table"): per-source rows built on first
     * use, and the routing's VC labelling */
    int32_t **rt_off, **rt_mid;
    int32_t *rt_live;         /* filtered candidates; row-build neighbours */
    long ndead;               /* dead ports: filter candidates when > 0 */
    /* per-source BFS trees over the live ports (see "route table"),
     * built on first use and dropped on every set_dead change; the
     * BFS queue; pair lookups served with a detour */
    int32_t **bfs;
    long nbfs;
    int32_t *bfs_q;
    unsigned long long detours;
    int vc_mode;              /* VC_HOP, VC_PHASE or VC_OTHER */
    long vc_min, vc_ind;      /* HopIndexVC budgets */
    /* the route under construction: routers, hop ports, VCs, kind */
    int32_t *rt_r, *rt_p, *rt_v;
    int32_t rt_n, rt_cap, rt_kind;

    /* -- per-run bindings (bind_run / unbind_refs) ------------------------ */
    PyObject *listeners; /* net._delivery_listeners, a list */
    int route_mode;      /* -1 off, 0 MIN (random), 2 INR, 3 UGAL-L */
    PyObject *min_rows, *leg_rows;                 /* RouteCache row memos */
    PyObject *minimal_fill, *leg_fill, *compose;   /* ... and its fills */
    /* the armed FaultManager (see "fault diverts"), or NULL: a resident
     * copy of its reroute RNG, its policy and a view of its counts
     * (reroutes, drops) */
    PyObject *fm;
    CRng fm_rng;
    int fm_drop;
    Py_buffer fm_counts_view; /* .obj NULL: unbound */
    long long *fm_counts;
    int32_t *pool;
    long npool, nI;
    int sf_mode, has_thr;
    double cc, c_sf, thr_cap;
    CRng rng[2];
    int rng_n;

    /* the in-window latencies since the last flush into absorb_kernel
     * (everything else the accounting writes straight into the
     * collector's arrays) */
    double *a_lat;
    Py_ssize_t a_lat_n;
} Kernel;

/* StatsCollector.counts and .times by index (repro/sim/stats.py). */
enum { ST_INJ = 0, ST_INJ_W = 1, ST_EJ = 2, ST_EJ_W = 3, ST_BYTES_W = 4,
       ST_HOPS_W = 5, ST_N = 6 };
enum { TM_WSTART = 0, TM_WEND = 1, TM_FIRST = 2, TM_LAST = 3, TM_N = 4 };

/* Interned attribute names (module init). */
static PyObject *str_routers, *str_ports, *str_vcs, *str_kind, *str_pid;
static PyObject *str_send_time, *str_eject_time, *str_hop;
static PyObject *str_delivery_listeners, *str_make_packet;
static PyObject *str_minimal, *str_indirect;

/* repro.routing.cache.NoRouteError, looked up by the first Kernel built. */
static PyObject *no_route_cls;

/* getattr(obj, name) by the interned *name*.  CPython's type attribute
 * cache keeps a reference to the name object of every lookup it
 * serves, so a fresh string per lookup (PyObject_GetAttrString) stays
 * on the heap after the kernel that made it is gone. */
static PyObject *
get_attr(PyObject *obj, const char *name)
{
    PyObject *key = PyUnicode_InternFromString(name);
    if (key == NULL)
        return NULL;
    PyObject *v = PyObject_GetAttr(obj, key);
    Py_DECREF(key);
    return v;
}

static double
mono_ns(void)
{
    struct timespec ts;
    clock_gettime(CLOCK_MONOTONIC, &ts);
    return (double)ts.tv_sec * 1e9 + (double)ts.tv_nsec;
}


/* -- event set: delay lanes, binary heap, call table ------------------------ */

static inline int
ev_lt(const Event *x, const Event *y)
{
    return x->t < y->t || (x->t == y->t && x->seq < y->seq);
}

static int
heap_push_ev(Kernel *k, Event ev)
{
    if (k->heap_n >= k->heap_cap) {
        Py_ssize_t ncap = k->heap_cap ? k->heap_cap * 2 : 1024;
        Event *nh = (Event *)PyMem_Realloc(k->heap, (size_t)ncap * sizeof(Event));
        if (nh == NULL) {
            PyErr_NoMemory();
            return -1;
        }
        k->heap = nh;
        k->heap_cap = ncap;
    }
    k->heap_push += 1;
    Event *h = k->heap;
    Py_ssize_t i = k->heap_n++;
    if (k->heap_n > k->heap_hwm)
        k->heap_hwm = k->heap_n;
    while (i > 0) {
        Py_ssize_t p = (i - 1) >> 1;
        if (ev_lt(&ev, &h[p])) {
            h[i] = h[p];
            i = p;
        } else {
            break;
        }
    }
    h[i] = ev;
    return 0;
}

static Event
heap_pop_ev(Kernel *k)
{
    Event *h = k->heap;
    Event top = h[0];
    Event last = h[--k->heap_n];
    Py_ssize_t n = k->heap_n;
    Py_ssize_t i = 0;
    for (;;) {
        Py_ssize_t l = 2 * i + 1;
        if (l >= n)
            break;
        if (l + 1 < n && ev_lt(&h[l + 1], &h[l]))
            l += 1;
        if (ev_lt(&h[l], &last)) {
            h[i] = h[l];
            i = l;
        } else {
            break;
        }
    }
    if (n > 0)
        h[i] = last;
    return top;
}

/* Queue an event on *lane* unless it sorts before the lane's tail (or
 * lane is LANE_HEAP); then the heap takes it. */
static inline int
kpush(Kernel *k, int lane, double t, long long seq, int op, long a, long b,
      long c)
{
    Event ev = {t, seq, op, (int32_t)a, (int32_t)b, (int32_t)c};
    if (lane < NLANES) {
        ERing *r = &k->lanes[lane];
        if (r->len == 0 || !ev_lt(&ev, ering_at(r, r->len - 1))) {
            if (ering_push(r, ev) < 0)
                return -1;
            k->lane_push[lane] += 1;
            return 0;
        }
    }
    return heap_push_ev(k, ev);
}

/* The queue holding the least pending key: a lane, LANE_HEAP, or -1
 * when nothing is pending. */
static inline int
next_queue(Kernel *k, const Event **head)
{
    int best = -1;
    const Event *be = NULL;
    if (k->heap_n) {
        best = LANE_HEAP;
        be = &k->heap[0];
    }
    for (int i = 0; i < NLANES; i++) {
        const ERing *r = &k->lanes[i];
        if (r->len && (be == NULL || ev_lt(&r->buf[r->head], be))) {
            best = i;
            be = &r->buf[r->head];
        }
    }
    *head = be;
    return best;
}

static inline Py_ssize_t
pending_count(Kernel *k)
{
    Py_ssize_t n = k->heap_n;
    for (int i = 0; i < NLANES; i++)
        n += k->lanes[i].len;
    return n;
}

/* A call-table record holding new references to fn and args, or -1. */
static int32_t
call_new(Kernel *k, PyObject *fn, PyObject *args)
{
    int32_t i = k->call_free - 1;
    if (i >= 0) {
        k->call_free = k->calls[i].next;
    } else {
        if (k->calls_n == k->calls_cap) {
            int32_t ncap = k->calls_cap ? k->calls_cap * 2 : 64;
            CallRec *nc = (CallRec *)PyMem_Realloc(
                k->calls, (size_t)ncap * sizeof(CallRec));
            if (nc == NULL) {
                PyErr_NoMemory();
                return -1;
            }
            k->calls = nc;
            k->calls_cap = ncap;
        }
        i = k->calls_n++;
    }
    k->calls[i].fn = Py_NewRef(fn);
    k->calls[i].args = Py_NewRef(args);
    return i;
}

/* Move record i's references to the caller and free the record. */
static void
call_take(Kernel *k, int32_t i, PyObject **fn, PyObject **args)
{
    CallRec *r = &k->calls[i];
    *fn = r->fn;
    *args = r->args;
    r->fn = r->args = NULL;
    r->next = k->call_free;
    k->call_free = i + 1;
}

static void
call_release(Kernel *k, int32_t i)
{
    PyObject *fn, *args;
    call_take(k, i, &fn, &args);
    Py_DECREF(fn);
    Py_DECREF(args);
}

/* Lazy busy test: busy at (t, s) iff (t, s) < (busy_t, busy_s). */
static inline int
is_busy(double t, long long s, double bt, long long bs)
{
    return t < bt || (t == bt && s < bs);
}

/* -- credit FIFOs ----------------------------------------------------------- */

static inline int
key_passed(const CKey *h, double t, long long s)
{
    return h->t < t || (h->t == t && h->s <= s);
}

/* Record one credit arrival at (at, as).  Entries whose key is at or
 * before the executing event (t, s) have already arrived: they fold into
 * *mat first, so the FIFO holds only credits still on the wire.  The
 * pending-arrival count of the elision model is *mat + r->len; the
 * materialised credit count is untouched, so every wake test reads
 * exactly what it would without the fold. */
static inline int
credit_push(KRing *r, int32_t *mat, double at, long long as,
            double t, long long s, int32_t *hwm)
{
    while (r->len && key_passed(&r->buf[r->head], t, s)) {
        r->head = (r->head + 1) & (r->cap - 1);
        r->len -= 1;
        *mat += 1;
    }
    CKey key = {at, as};
    if (kring_push(r, key) < 0)
        return -1;
    if (r->len > *hwm)
        *hwm = r->len;
    return 0;
}

/* Materialise every arrival at or before (t, s); returns how many. */
static inline int32_t
credit_drain(KRing *r, int32_t *mat, double t, long long s)
{
    int32_t n = *mat;
    *mat = 0;
    while (r->len && key_passed(&r->buf[r->head], t, s)) {
        r->head = (r->head + 1) & (r->cap - 1);
        r->len -= 1;
        n += 1;
    }
    return n;
}

/* -- packet slots ------------------------------------------------------------ */

/* Add a page of SLOT_PAGE slots (uninitialised: slot_alloc writes a
 * slot when it hands it out). */
static int
slot_page_add(Kernel *k)
{
    if (k->npages == k->pages_cap) {
        int32_t ncap = k->pages_cap ? k->pages_cap * 2 : 16;
        Slot **np = (Slot **)PyMem_Realloc(k->slot_pages,
                                           (size_t)ncap * sizeof(Slot *));
        if (np == NULL) {
            PyErr_NoMemory();
            return -1;
        }
        k->slot_pages = np;
        k->pages_cap = ncap;
    }
    Slot *page = (Slot *)PyMem_Malloc((size_t)SLOT_PAGE * sizeof(Slot));
    if (page == NULL) {
        PyErr_NoMemory();
        return -1;
    }
    k->slot_pages[k->npages++] = page;
    return 0;
}

/* A cleared slot with no route, hop 0: recycled, or the next unused
 * one. */
static int32_t
slot_alloc(Kernel *k)
{
    int32_t si;
    if (k->free_head >= 0) {
        si = k->free_head;
        k->free_head = SLOT(k, si)->next;
    } else {
        if ((k->nslots & (SLOT_PAGE - 1)) == 0 && slot_page_add(k) < 0)
            return -1;
        si = k->nslots++;
    }
    *SLOT(k, si) = (Slot){.next = -1};
    k->live += 1;
    if (k->live > k->hwm)
        k->hwm = k->live;
    return si;
}

/* Size slot p's route for n ports: inline, or one spilled block of n
 * ports followed by n VCs.  A previous spill is freed; the caller
 * writes the entries. */
static int
slot_route_size(Kernel *k, Slot *p, Py_ssize_t n)
{
    if (p->nports > SLOT_INLINE) {
        PyMem_Free(p->r.out);
        k->spill_live -= 1;
    }
    p->nports = 0;
    if (n > SLOT_INLINE) {
        if (n > UINT16_MAX) {
            PyErr_SetString(PyExc_OverflowError, "kernel: route too long");
            return -1;
        }
        p->r.out = (uint16_t *)PyMem_Malloc(
            (size_t)n * (sizeof(uint16_t) + sizeof(uint8_t)));
        if (p->r.out == NULL) {
            PyErr_NoMemory();
            return -1;
        }
        if (++k->spill_live > k->spill_hwm)
            k->spill_hwm = k->spill_live;
    }
    p->nports = (uint16_t)n;
    return 0;
}

/* Return a delivered or dropped packet's slot to the free list. */
static void
slot_release(Kernel *k, int32_t si)
{
    Slot *p = SLOT(k, si);
    slot_route_size(k, p, 0);
    p->hop = -1;
    p->next = k->free_head;
    k->free_head = si;
    k->live -= 1;
}

/* Index of route kind *kind* in the collector's kind_names, interned
 * there when new (StatsCollector.kind_index, which refuses a kind past
 * the capacity).  An index past the bound kind_totals is refused,
 * whatever Python did to the list. */
static int
kind_index(Kernel *k, PyObject *kind)
{
    PyObject *r = PyObject_CallOneArg(k->kind_intern, kind);
    Py_ssize_t i = r != NULL ? PyLong_AsSsize_t(r) : -1;
    Py_XDECREF(r);
    if (i >= 0 && i < k->nkind)
        return (int)i;
    if (!PyErr_Occurred())
        PyErr_Format(PyExc_IndexError,
                     "kernel: route kind index %zd outside [0, %zd)", i,
                     k->nkind);
    return -1;
}

/* Copy an int tuple into *out* (at most *cap* entries); returns its
 * length, or -1 with an error. */
static Py_ssize_t
tuple_ints(PyObject *t, int32_t *out, Py_ssize_t cap)
{
    if (!PyTuple_Check(t)) {
        PyErr_SetString(PyExc_TypeError, "kernel: route field is not a tuple");
        return -1;
    }
    Py_ssize_t n = PyTuple_GET_SIZE(t);
    if (n > cap) {
        PyErr_SetString(PyExc_OverflowError, "kernel: route too long");
        return -1;
    }
    for (Py_ssize_t i = 0; i < n; i++) {
        long v = PyLong_AsLong(PyTuple_GET_ITEM(t, i));
        if (v == -1 && PyErr_Occurred())
            return -1;
        out[i] = (int32_t)v;
    }
    return n;
}

/* A new tuple of ints from an int32 array. */
static PyObject *
int_tuple(const int32_t *v, Py_ssize_t n)
{
    PyObject *t = PyTuple_New(n);
    if (t == NULL)
        return NULL;
    for (Py_ssize_t i = 0; i < n; i++) {
        PyObject *x = PyLong_FromLong(v[i]);
        if (x == NULL) {
            Py_DECREF(t);
            return NULL;
        }
        PyTuple_SET_ITEM(t, i, x);
    }
    return t;
}

/* The router a hop's output port gid leads to, or -1 when it ejects. */
static inline long
port_next_router(Kernel *k, long gid)
{
    long din = k->p_dest_in[gid];
    return din < 0 ? -1 : k->p_rid[k->in_pbase[din]];
}

/* Load slot p's route, sized for nports entries, from a Packet's
 * tuples.  Its routers must be the ones its ports lead through from
 * the source node's router, its last port (only) must eject, and every
 * VC it labels must be provisioned; an unlabelled hop uses VC 0, as
 * the object switch reads it. */
static int
route_read(Kernel *k, Slot *p, PyObject *routers, PyObject *ports,
           PyObject *vcs)
{
    Py_ssize_t n = p->nports, nv = PyTuple_GET_SIZE(vcs);
    uint16_t *port = slot_ports(p);
    uint8_t *vc = slot_vcs(p);
    long r = k->n_rid[p->src];
    for (Py_ssize_t h = 0; h < n; h++) {
        long at = PyLong_AsLong(PyTuple_GET_ITEM(routers, h));
        long pt = PyLong_AsLong(PyTuple_GET_ITEM(ports, h));
        long v = h < nv ? PyLong_AsLong(PyTuple_GET_ITEM(vcs, h)) : 0;
        if ((at == -1 || pt == -1 || v == -1) && PyErr_Occurred())
            return -1;
        long base = k->p_off[r];
        long end = r + 1 < k->NR ? k->p_off[r + 1] : k->NP;
        if (pt < 0 || pt >= end - base) {
            PyErr_Format(PyExc_IndexError,
                         "kernel: route port %ld out of range at hop %zd",
                         pt, h);
            return -1;
        }
        if (v < 0 || v >= k->V) {
            PyErr_Format(PyExc_IndexError,
                         "kernel: route VC %ld out of range at hop %zd", v, h);
            return -1;
        }
        long nr = port_next_router(k, base + pt);
        if (at != r || (nr < 0) != (h == n - 1)) {
            PyErr_SetString(PyExc_ValueError,
                            "kernel: route routers do not follow its ports");
            return -1;
        }
        port[h] = (uint16_t)pt;
        vc[h] = (uint8_t)v;
        r = nr;
    }
    return 0;
}

/* Load a slot's route from the Packet the make_packet escape made. */
static int
slot_load_packet(Kernel *k, int32_t si, PyObject *pkt)
{
    PyObject *ports = PyObject_GetAttr(pkt, str_ports);
    PyObject *vcs = ports ? PyObject_GetAttr(pkt, str_vcs) : NULL;
    PyObject *routers = vcs ? PyObject_GetAttr(pkt, str_routers) : NULL;
    int rc = -1;
    if (routers == NULL)
        goto done;
    if (!PyTuple_Check(ports) || !PyTuple_Check(vcs) ||
        !PyTuple_Check(routers) || PyTuple_GET_SIZE(routers) < 1) {
        PyErr_SetString(PyExc_TypeError,
                        "kernel: packet without tuple routers/ports/vcs");
        goto done;
    }
    Py_ssize_t n = PyTuple_GET_SIZE(ports);
    if (PyTuple_GET_SIZE(routers) != n) {
        PyErr_SetString(PyExc_ValueError,
                        "kernel: route routers do not follow its ports");
        goto done;
    }
    Slot *p = SLOT(k, si);
    if (slot_route_size(k, p, n) == 0)
        rc = route_read(k, p, routers, ports, vcs);
done:
    Py_XDECREF(routers);
    Py_XDECREF(vcs);
    Py_XDECREF(ports);
    return rc;
}

/* The slot's route as new (routers, ports, vcs) tuples; the routers
 * are derived from the source node's router and the ports. */
static int
slot_route_tuples(Kernel *k, Slot *p, PyObject **routers, PyObject **ports,
                  PyObject **vcs)
{
    Py_ssize_t n = p->nports;
    const uint16_t *port = slot_ports(p);
    const uint8_t *vc = slot_vcs(p);
    *routers = PyTuple_New(n);
    *ports = PyTuple_New(n);
    *vcs = PyTuple_New(n - 1);
    if (*routers == NULL || *ports == NULL || *vcs == NULL)
        return -1;
    long r = k->n_rid[p->src];
    for (Py_ssize_t h = 0; h < n; h++) {
        PyObject *x = PyLong_FromLong(r);
        PyObject *y = PyLong_FromLong(port[h]);
        PyObject *z = h + 1 < n ? PyLong_FromLong(vc[h]) : NULL;
        if (x == NULL || y == NULL || (h + 1 < n && z == NULL)) {
            Py_XDECREF(x);
            Py_XDECREF(y);
            Py_XDECREF(z);
            return -1;
        }
        PyTuple_SET_ITEM(*routers, h, x);
        PyTuple_SET_ITEM(*ports, h, y);
        if (z != NULL)
            PyTuple_SET_ITEM(*vcs, h, z);
        if (h + 1 < n)
            r = port_next_router(k, k->p_off[r] + port[h]);
    }
    return 0;
}

/* setattr(obj, name, v) for a new reference *v* (NULL: an error is
 * set), which it drops. */
static int
set_new(PyObject *obj, PyObject *name, PyObject *v)
{
    int rc = v != NULL ? PyObject_SetAttr(obj, name, v) : -1;
    Py_XDECREF(v);
    return rc;
}

/* A new Packet for the delivery listeners of the packet in *p*,
 * delivered at *t*: field for field the object engine's Packet at its
 * delivery, that is what make_packet returns plus the send and eject
 * times and the hop cursor (at the destination router, where the
 * object switch leaves it). */
static PyObject *
slot_packet(Kernel *k, Slot *p, double t)
{
    PyObject *routers = NULL, *ports = NULL, *vcs = NULL, *mid = NULL;
    PyObject *pkt = NULL, *kind = PySequence_GetItem(k->kind_names, p->kind);
    if (kind == NULL || slot_route_tuples(k, p, &routers, &ports, &vcs) < 0)
        goto done;
    mid = p->msg_id < 0 ? Py_NewRef(Py_None) : PyLong_FromLongLong(p->msg_id);
    if (mid == NULL)
        goto done;
    pkt = PyObject_CallFunction(k->packet_cls, "LiiLOOOOdO", p->pid,
                                (int)p->src, (int)p->dst, p->size, routers,
                                ports, vcs, kind, p->gen_time, mid);
    if (pkt != NULL &&
        (set_new(pkt, str_send_time, PyFloat_FromDouble(p->send_time)) < 0 ||
         set_new(pkt, str_eject_time, PyFloat_FromDouble(t)) < 0 ||
         set_new(pkt, str_hop, PyLong_FromLong(p->hop)) < 0))
        Py_CLEAR(pkt);
done:
    Py_XDECREF(kind);
    Py_XDECREF(mid);
    Py_XDECREF(vcs);
    Py_XDECREF(ports);
    Py_XDECREF(routers);
    return pkt;
}

/* -- statistics: send and delivery accounting ------------------------------- */

/* Hand the latency block to the StatsCollector (absorb_kernel), as raw
 * float64 bytes (no Python object per packet), when the block fills
 * and when a run returns: the only two flushes, since every other
 * number the accounting keeps is written in place. */
static int
stats_flush(Kernel *k)
{
    if (k->a_lat_n == 0)
        return 0;
    double t0 = mono_ns();
    PyObject *lat = PyBytes_FromStringAndSize(
        (const char *)k->a_lat, k->a_lat_n * (Py_ssize_t)sizeof(double));
    PyObject *res = lat != NULL ? PyObject_CallOneArg(k->stats_absorb, lat)
                                : NULL;
    if (res != NULL)
        k->a_lat_n = 0;
    Py_XDECREF(res);
    Py_XDECREF(lat);
    k->esc_ns[ESC_FLUSH] += mono_ns() - t0;
    k->esc_counts[ESC_FLUSH] += 1;
    return res != NULL ? 0 : -1;
}

/* Latencies accumulate in one block of LAT_BLOCK doubles, flushed to
 * the collector whenever it fills, so the kernel's share of a run's
 * latencies stays fixed however long the run. */
#define LAT_BLOCK 4096

static int
lat_push(Kernel *k, double v)
{
    if (k->a_lat == NULL) {
        k->a_lat = (double *)PyMem_Malloc(LAT_BLOCK * sizeof(double));
        if (k->a_lat == NULL) {
            PyErr_NoMemory();
            return -1;
        }
    } else if (k->a_lat_n == LAT_BLOCK && stats_flush(k) < 0) {
        return -1;
    }
    k->a_lat[k->a_lat_n++] = v;
    return 0;
}

/* StatsCollector.record_inject for a packet sent at *t*, whichever path
 * routed it, written into the collector's arrays.  An unrecorded time
 * and an open window end are infinities. */
static inline void
acct_inject(Kernel *k, double t)
{
    double *tm = k->tm;
    k->st[ST_INJ] += 1;
    if (tm[TM_FIRST] == INFINITY)
        tm[TM_FIRST] = t;
    if (t >= tm[TM_WSTART] && t < tm[TM_WEND])
        k->st[ST_INJ_W] += 1;
}

/* StatsCollector.record_eject for the packet in *p*, delivered at *t*. */
static inline int
acct_eject(Kernel *k, const Slot *p, double t)
{
    long long *st = k->st;
    double *tm = k->tm;
    st[ST_EJ] += 1;
    tm[TM_LAST] = t;
    k->ejcnt[p->dst] += 1;
    if (t >= tm[TM_WSTART] && t < tm[TM_WEND]) {
        st[ST_EJ_W] += 1;
        st[ST_BYTES_W] += p->size;
        st[ST_HOPS_W] += p->nports - 1;
        if (lat_push(k, t - p->gen_time) < 0)
            return -1;
        k->kind_tot[p->kind] += 1;
    }
    return 0;
}

/* -- route table --------------------------------------------------------------
 *
 * On the paper's diameter-two topologies a minimal path is the self path,
 * the direct edge, or a two-hop path through a common neighbour
 * (MinimalPaths.paths, in that order, common neighbours ascending).  The
 * table holds each ordered pair's list as "middles" -- RT_SELF, RT_DIRECT
 * or the middle router -- in CSR rows built from row_port, one source
 * row at a time on first use.  The same list is the pair's minimal
 * candidates and its Valiant legs, so every selection indexes the order
 * RouteCache would, and every randbelow draw matches.  With ports dead,
 * a pair's list is filtered by p_dead into RouteCache's live subset, in
 * the same order.  A pair whose every listed path crosses a dead port
 * gets the one candidate RouteCache's BFS fallback would give it (the
 * detour, RT_DETOUR): the path to b in source a's BFS tree over the live
 * ports, whose neighbours are visited in port order -- ascending, as
 * RouteCache._degraded_path visits them -- so each router's parent is
 * its predecessor on the lexicographically least shortest path.  The
 * trees are built per source on first use and dropped on every set_dead
 * change; a detour that needs more VCs than a minimal route has takes
 * the indirect labels and kind of RouteCache._degraded_route, and a
 * cut-off pair or an over-long detour raises its NoRouteError.
 *
 * VC labels and kinds follow the two stock policies: HopIndexVC (VC =
 * hop index, within the minimal / indirect budget) and PhaseVC (minimal
 * on VC 0, indirect on VC 0 up to the intermediate and 1 after it).
 *
 * What the table cannot reproduce escapes to RouteCache (counted as
 * route_fill when a fill or compose runs): pairs more than two hops
 * apart; minimal pairs past the HopIndexVC minimal budget and indirect
 * routes past the indirect one (INR raises NoRouteError there, UGAL
 * routes minimally); and any other VC policy's minimal routes and
 * compositions.
 */

#define RT_SELF (-2)   /* the one-router path (a) */
#define RT_DIRECT (-1) /* the edge (a, b) */
#define RT_DETOUR (-3) /* the path to b in a's BFS tree over live ports */

enum { VC_OTHER = -1, VC_HOP = 0, VC_PHASE = 1 };

static inline int32_t
rt_port(Kernel *k, long u, long v)
{
    return k->row_port[u * k->NR + v];
}

static inline int
rt_hops(int32_t mid)
{
    return mid == RT_SELF ? 0 : mid == RT_DIRECT ? 1 : 2;
}

/* Build source row a of the table: for every b, the pair's minimal paths
 * in MinimalPaths.paths order. */
static int
rt_build_row(Kernel *k, long a)
{
    long NR = k->NR;
    int32_t *nbr = k->rt_live, deg = 0; /* a's neighbours, ascending */
    for (long m = 0; m < NR; m++)
        if (rt_port(k, a, m) >= 0)
            nbr[deg++] = (int32_t)m;
    int32_t *off = (int32_t *)PyMem_Malloc((size_t)(NR + 1) * sizeof(int32_t));
    int32_t *mid = off ? (int32_t *)PyMem_Malloc(
                             (size_t)NR * (size_t)(deg + 1) * sizeof(int32_t))
                       : NULL;
    if (mid == NULL) {
        PyMem_Free(off);
        PyErr_NoMemory();
        return -1;
    }
    int32_t n = 0;
    for (long b = 0; b < NR; b++) {
        off[b] = n;
        if (b == a)
            mid[n++] = RT_SELF;
        else if (rt_port(k, a, b) >= 0)
            mid[n++] = RT_DIRECT;
        else
            for (int32_t i = 0; i < deg; i++)
                if (rt_port(k, nbr[i], b) >= 0)
                    mid[n++] = nbr[i];
    }
    off[NR] = n;
    int32_t *fit = (int32_t *)PyMem_Realloc(mid, (size_t)(n ? n : 1) *
                                                     sizeof(int32_t));
    k->rt_off[a] = off;
    k->rt_mid[a] = fit ? fit : mid;
    return 0;
}

static inline int
rt_dead(Kernel *k, long a, long b, int32_t mid)
{
    if (mid == RT_SELF)
        return 0;
    if (mid == RT_DIRECT)
        return k->p_dead[rt_port(k, a, b)];
    return k->p_dead[rt_port(k, a, mid)] || k->p_dead[rt_port(k, mid, b)];
}

/* Free every BFS tree (the dead ports changed). */
static void
bfs_drop(Kernel *k)
{
    for (long a = 0; k->nbfs && a < k->NR; a++) {
        if (k->bfs[a] != NULL) {
            PyMem_Free(k->bfs[a]);
            k->bfs[a] = NULL;
            k->nbfs -= 1;
        }
    }
}

/* Source a's BFS tree over the live ports: NR parents (-1 at a, -2 for
 * a router cut off from a), then NR hop counts (set where reached). */
static const int32_t *
bfs_tree(Kernel *k, long a)
{
    if (k->bfs[a] != NULL)
        return k->bfs[a];
    long NR = k->NR;
    int32_t *par = (int32_t *)PyMem_Malloc((size_t)(2 * NR) * sizeof(int32_t));
    if (par == NULL) {
        PyErr_NoMemory();
        return NULL;
    }
    int32_t *dist = par + NR, *q = k->bfs_q;
    for (long v = 0; v < NR; v++)
        par[v] = -2;
    par[a] = -1;
    dist[a] = 0;
    int32_t head = 0, tail = 0;
    q[tail++] = (int32_t)a;
    while (head < tail) {
        int32_t u = q[head++];
        long end = u + 1 < NR ? k->p_off[u + 1] : k->NP;
        for (long g = k->p_off[u]; g < end; g++) {
            long v = port_next_router(k, g);
            if (v < 0 || par[v] != -2 || k->p_dead[g])
                continue;
            par[v] = u;
            dist[v] = dist[u] + 1;
            q[tail++] = (int32_t)v;
        }
    }
    k->bfs[a] = par;
    k->nbfs += 1;
    return par;
}

/* Hops of pair (a, b)'s detour (its BFS tree is built). */
static inline long
detour_hops(Kernel *k, long a, long b)
{
    return k->bfs[a][k->NR + b];
}

/* Pair (a, b)'s live candidates: their count (0 when the pair escapes,
 * -1 on error) with *out at the table entry or, with ports dead, at the
 * filtered copy in rt_live (valid until the next call) -- the detour
 * alone when every entry is dead (NoRouteError when b is cut off). */
static int32_t
rt_candidates(Kernel *k, long a, long b, const int32_t **out)
{
    if (k->rt_off[a] == NULL && rt_build_row(k, a) < 0)
        return -1;
    const int32_t *off = k->rt_off[a];
    const int32_t *mid = k->rt_mid[a] + off[b];
    int32_t n = off[b + 1] - off[b];
    *out = mid;
    if (k->ndead == 0 || n == 0)
        return n;
    int32_t live = 0;
    for (int32_t i = 0; i < n; i++)
        if (!rt_dead(k, a, b, mid[i]))
            k->rt_live[live++] = mid[i];
    if (live == 0) {
        const int32_t *par = bfs_tree(k, a);
        if (par == NULL)
            return -1;
        if (par[b] == -2) {
            PyErr_Format(no_route_cls,
                         "routers %ld and %ld are disconnected by the current "
                         "link failures (%ld links down)", a, b, k->ndead / 2);
            return -1;
        }
        k->rt_live[live++] = RT_DETOUR;
        k->detours += 1;
    }
    *out = k->rt_live;
    return live;
}

/* The kind RouteCache._degraded_route gives pair (a, b)'s detour:
 * minimal when the policy labels a minimal route that long, else
 * indirect with hop-indexed VCs within the indirect budget and -- once
 * a FaultManager is armed, which caps its cache at the provisioned VCs
 * (runtime_vcs) -- within V, else (-1) its NoRouteError. */
static int
detour_kind(Kernel *k, long a, long b)
{
    long hops = detour_hops(k, a, b);
    if (k->vc_mode == VC_PHASE || hops <= k->vc_min)
        return k->ki_min;
    long limit = k->vc_ind;
    if (k->fm != NULL && k->V < limit)
        limit = k->V;
    if (hops > limit) {
        PyErr_Format(no_route_cls,
                     "degraded path %ld->%ld needs %ld hops but only %ld VCs "
                     "are available; provision headroom with "
                     "repro.analysis.faults.safe_vc_policy", a, b, hops, limit);
        return -1;
    }
    return k->ki_ind;
}

/* The same for minimal candidates, which need VC labels: 0 as well for
 * a policy C does not label and for pairs past the HopIndexVC minimal
 * budget (minimal_fill raises the budget error on the listed paths,
 * dead or not); a detour past every budget raises NoRouteError. */
static int32_t
rt_min_candidates(Kernel *k, long a, long b, const int32_t **out)
{
    if (k->vc_mode == VC_OTHER)
        return 0;
    if (k->rt_off[a] == NULL && rt_build_row(k, a) < 0)
        return -1;
    const int32_t *off = k->rt_off[a];
    if (off[b + 1] > off[b] && k->vc_mode == VC_HOP &&
        rt_hops(k->rt_mid[a][off[b]]) > k->vc_min)
        return 0;
    int32_t n = rt_candidates(k, a, b, out);
    if (n == 1 && (*out)[0] == RT_DETOUR && detour_kind(k, a, b) < 0)
        return -1;
    return n;
}

/* A chosen path of pair (a, b): a table entry, or an escaped RouteCache
 * candidate -- a minimal Route (route) or a leg -- with its routers
 * tuple (path).  Both references are owned. */
typedef struct {
    long a, b;
    int32_t mid;
    PyObject *route, *path;
} Pick;

static inline void
pick_init(Pick *p, long a, long b)
{
    p->a = a;
    p->b = b;
    p->mid = RT_SELF;
    p->route = p->path = NULL;
}

static inline void
pick_clear(Pick *p)
{
    Py_CLEAR(p->route);
    Py_CLEAR(p->path);
}

static inline long
pick_hops(Kernel *k, const Pick *p)
{
    if (p->path)
        return (long)PyTuple_GET_SIZE(p->path) - 1;
    return p->mid == RT_DETOUR ? detour_hops(k, p->a, p->b) : rt_hops(p->mid);
}

/* Output-queue depth at router *u*'s port toward *v* (what
 * Network.queue_len returns); -1 with an error for a non-channel. */
static inline long
fp_qlen(Kernel *k, long u, long v)
{
    int32_t gid = -1;
    if (u >= 0 && u < k->NR && v >= 0 && v < k->NR)
        gid = rt_port(k, u, v);
    if (gid < 0) {
        PyErr_Format(PyExc_IndexError,
                     "kernel: no channel from router %ld to %ld", u, v);
        return -1;
    }
    return k->p_queued[gid];
}

/* First-hop queue length of a routers tuple (0 for a self path). */
static long
path_first_qlen(Kernel *k, PyObject *routers)
{
    if (PyTuple_GET_SIZE(routers) <= 1)
        return 0;
    long r0 = PyLong_AsLong(PyTuple_GET_ITEM(routers, 0));
    long r1 = PyLong_AsLong(PyTuple_GET_ITEM(routers, 1));
    if ((r0 == -1 || r1 == -1) && PyErr_Occurred())
        return -1;
    return fp_qlen(k, r0, r1);
}

/* First-hop queue length of a pick (0 for a self path). */
static inline long
pick_first_qlen(Kernel *k, const Pick *p)
{
    if (p->path)
        return path_first_qlen(k, p->path);
    if (p->mid == RT_SELF)
        return 0;
    long first = p->mid == RT_DIRECT ? p->b : p->mid;
    if (p->mid == RT_DETOUR) {
        const int32_t *par = k->bfs[p->a];
        for (first = p->b; par[first] != p->a; first = par[first])
            ;
    }
    return k->p_queued[rt_port(k, p->a, first)];
}

/* Call into RouteCache, timed and counted as the route_fill escape. */
static PyObject *
rc_call(Kernel *k, PyObject *fn, PyObject *x, PyObject *y)
{
    double t0 = mono_ns();
    PyObject *r = PyObject_CallFunctionObjArgs(fn, x, y, NULL);
    k->esc_ns[ESC_FILL] += mono_ns() - t0;
    k->esc_counts[ESC_FILL] += 1;
    return r;
}

/* Escape: pair (a, b)'s candidates from RouteCache -- its row memo, else
 * minimal_fill / leg_fill.  New reference to a non-empty tuple. */
static PyObject *
rc_candidates(Kernel *k, long a, long b, int leg)
{
    PyObject *row = PyList_GET_ITEM(leg ? k->leg_rows : k->min_rows, a);
    PyObject *c = NULL;
    if (PyList_Check(row) && b < PyList_GET_SIZE(row))
        c = PyList_GET_ITEM(row, b);
    if (c != NULL && c != Py_None) {
        Py_INCREF(c);
    } else {
        PyObject *x = PyLong_FromLong(a);
        PyObject *y = x ? PyLong_FromLong(b) : NULL;
        c = y ? rc_call(k, leg ? k->leg_fill : k->minimal_fill, x, y) : NULL;
        Py_XDECREF(x);
        Py_XDECREF(y);
        if (c == NULL)
            return NULL;
    }
    if (!PyTuple_Check(c) || PyTuple_GET_SIZE(c) == 0) {
        Py_DECREF(c);
        PyErr_SetString(PyExc_RuntimeError,
                        "kernel: RouteCache returned no candidates");
        return NULL;
    }
    return c;
}

/* MinimalRouting.route with random selection: among the pair's live
 * candidates, the only one or a randbelow draw on *rng*. */
static int
route_min(Kernel *k, long a, long b, MT *rng, Pick *out)
{
    pick_init(out, a, b);
    const int32_t *mid = NULL;
    int32_t n = rt_min_candidates(k, a, b, &mid);
    if (n < 0)
        return -1;
    if (n > 0) {
        int32_t i = n > 1 ? (int32_t)mt_randbelow(rng, n) : 0;
        out->mid = mid[i];
        return 0;
    }
    PyObject *cands = rc_candidates(k, a, b, 0);
    if (cands == NULL)
        return -1;
    Py_ssize_t nc = PyTuple_GET_SIZE(cands);
    Py_ssize_t i = nc > 1 ? (Py_ssize_t)mt_randbelow(rng, (long)nc) : 0;
    out->route = Py_NewRef(PyTuple_GET_ITEM(cands, i));
    Py_DECREF(cands);
    out->path = PyObject_GetAttr(out->route, str_routers);
    if (out->path == NULL)
        return -1;
    if (!PyTuple_Check(out->path) || PyTuple_GET_SIZE(out->path) < 1) {
        PyErr_SetString(PyExc_TypeError, "kernel: route routers");
        return -1;
    }
    return 0;
}

/* One Valiant leg a -> b: the only live candidate or a randbelow draw. */
static int
route_leg(Kernel *k, long a, long b, MT *rng, Pick *out)
{
    pick_init(out, a, b);
    const int32_t *mid;
    int32_t n = rt_candidates(k, a, b, &mid);
    if (n < 0)
        return -1;
    if (n > 0) {
        out->mid = mid[n == 1 ? 0 : mt_randbelow(rng, n)];
        return 0;
    }
    PyObject *cands = rc_candidates(k, a, b, 1);
    if (cands == NULL)
        return -1;
    Py_ssize_t nc = PyTuple_GET_SIZE(cands);
    PyObject *leg = PyTuple_GET_ITEM(
        cands, nc == 1 ? 0 : (Py_ssize_t)mt_randbelow(rng, (long)nc));
    out->path = Py_NewRef(leg);
    Py_DECREF(cands);
    if (!PyTuple_Check(leg) || PyTuple_GET_SIZE(leg) < 2) {
        PyErr_SetString(PyExc_TypeError, "kernel: RouteCache leg");
        return -1;
    }
    return 0;
}

/* Rejection-sample an intermediate router != src, dst (the Python
 * loop in IndirectRandomRouting/UGALRouting._pick_intermediate). */
static inline long
fp_pick_intermediate(Kernel *k, long sr, long dr, MT *rng)
{
    for (;;) {
        long inter = k->pool[mt_randbelow(rng, k->npool)];
        if (inter != sr && inter != dr)
            return inter;
    }
}

/* Write a pick's routers into the route under construction from index
 * *at* (a second leg overwrites the intermediate the first leg ends
 * on); returns the route's router count, or -1 with an error. */
static int32_t
rt_put_path(Kernel *k, const Pick *p, int32_t at)
{
    int32_t *r = k->rt_r;
    if (p->mid == RT_DETOUR && p->path == NULL) {
        const int32_t *par = k->bfs[p->a];
        long hops = detour_hops(k, p->a, p->b);
        int32_t v = (int32_t)p->b;
        for (long i = hops; i >= 0; i--, v = par[v])
            r[at + i] = v;
        return at + (int32_t)hops + 1;
    }
    if (p->path == NULL) {
        r[at++] = (int32_t)p->a;
        if (p->mid >= 0)
            r[at++] = p->mid;
        if (p->mid != RT_SELF)
            r[at++] = (int32_t)p->b;
        return at;
    }
    Py_ssize_t n = tuple_ints(p->path, r + at, k->rt_cap - at);
    if (n < 0)
        return -1;
    for (Py_ssize_t i = 0; i < n; i++) {
        if (r[at + i] < 0 || r[at + i] >= k->NR) {
            PyErr_SetString(PyExc_IndexError,
                            "kernel: route router out of range");
            return -1;
        }
    }
    return at + (int32_t)n;
}

/* Take the route under construction from a RouteCache Route. */
static int
rt_put_route(Kernel *k, PyObject *route)
{
    Pick p;
    pick_init(&p, 0, 0);
    p.path = PyObject_GetAttr(route, str_routers);
    PyObject *vcs = p.path ? PyObject_GetAttr(route, str_vcs) : NULL;
    PyObject *kind = vcs ? PyObject_GetAttr(route, str_kind) : NULL;
    int rc = -1;
    if (kind != NULL && (k->rt_n = rt_put_path(k, &p, 0)) >= 1) {
        Py_ssize_t nv = tuple_ints(vcs, k->rt_v, k->rt_cap);
        if (nv >= 0 && nv != k->rt_n - 1)
            PyErr_SetString(PyExc_ValueError, "kernel: route VC count");
        else if (nv >= 0 && (k->rt_kind = kind_index(k, kind)) >= 0)
            rc = 0;
    }
    Py_XDECREF(kind);
    Py_XDECREF(vcs);
    pick_clear(&p);
    return rc;
}

/* Take the route under construction from a minimal pick. */
static int
emit_min(Kernel *k, const Pick *p)
{
    if (p->route != NULL)
        return rt_put_route(k, p->route);
    int kind = p->mid == RT_DETOUR ? detour_kind(k, p->a, p->b) : k->ki_min;
    if (kind < 0)
        return -1;
    int32_t n = rt_put_path(k, p, 0);
    k->rt_n = n;
    for (int32_t h = 0; h + 1 < n; h++)
        k->rt_v[h] = k->vc_mode == VC_HOP ? h : 0;
    k->rt_kind = kind;
    return 0;
}

/* VC labels of the composed route in rt_r (intermediate at index
 * *inter*) under a stock policy: 1 when labelled, 0 when C cannot label
 * it (past the HopIndexVC indirect budget, or another policy). */
static int
compose_c(Kernel *k, int32_t inter)
{
    int32_t hops = k->rt_n - 1;
    if (k->vc_mode == VC_PHASE) {
        for (int32_t h = 0; h < hops; h++)
            k->rt_v[h] = h < inter ? 0 : 1;
    } else if (k->vc_mode == VC_HOP && hops <= k->vc_ind) {
        for (int32_t h = 0; h < hops; h++)
            k->rt_v[h] = h;
    } else {
        return 0;
    }
    k->rt_kind = k->ki_ind;
    return 1;
}

/* The Valiant route through legs (first, second) as the route under
 * construction: 1 when built, 0 when it is VC-illegal and *or_minimal*
 * (UGAL then routes minimally), -1 on error.  What C cannot label goes
 * to RouteCache.compose, which raises NoRouteError for an illegal route
 * exactly as the Python routing sees it. */
static int
emit_composed(Kernel *k, const Pick *first, const Pick *second,
              int or_minimal)
{
    int32_t n1 = rt_put_path(k, first, 0);
    int32_t n = n1 < 1 ? -1 : rt_put_path(k, second, n1 - 1);
    if (n < 0)
        return -1;
    k->rt_n = n;
    if (compose_c(k, n1 - 1))
        return 1;
    if (k->vc_mode == VC_HOP && or_minimal)
        return 0;
    PyObject *f = int_tuple(k->rt_r, n1);
    PyObject *s = f ? int_tuple(k->rt_r + n1 - 1, n - n1 + 1) : NULL;
    PyObject *route = s ? rc_call(k, k->compose, f, s) : NULL;
    Py_XDECREF(f);
    Py_XDECREF(s);
    if (route == NULL) {
        if (or_minimal && PyErr_ExceptionMatches(no_route_cls)) {
            PyErr_Clear();
            return 0;
        }
        return -1;
    }
    int rc = rt_put_route(k, route);
    Py_DECREF(route);
    return rc < 0 ? -1 : 1;
}

/* IndirectRandomRouting.route: intermediate and legs drawn on rng 0;
 * NoRouteError from an illegal composition propagates, as in Python. */
static int
route_inr(Kernel *k, long sr, long dr)
{
    if (sr == dr) { /* intra-router traffic: RouteCache.self_route */
        k->rt_r[0] = (int32_t)sr;
        k->rt_n = 1;
        k->rt_kind = k->ki_min;
        return 0;
    }
    MT *rng = &k->rng[0].g;
    long inter = fp_pick_intermediate(k, sr, dr, rng);
    Pick f, s;
    pick_init(&s, inter, dr);
    int rc = -1;
    if (route_leg(k, sr, inter, rng, &f) == 0 &&
        route_leg(k, inter, dr, rng, &s) == 0)
        rc = emit_composed(k, &f, &s, 0) < 0 ? -1 : 0;
    pick_clear(&f);
    pick_clear(&s);
    return rc;
}

/* UGALRouting.route, local variant with random minimal selection: minimal
 * pick on rng 0, indirect scoring draws on rng 1, strict cost comparison
 * (ties go minimal), an illegal winning composition routes minimally. */
static int
route_ugal(Kernel *k, long sr, long dr)
{
    MT *rng1 = k->rng_n > 1 ? &k->rng[1].g : &k->rng[0].g;
    Pick minimal, f, s, bf, bs;
    pick_init(&f, sr, sr);
    pick_init(&s, sr, sr);
    pick_init(&bf, sr, sr);
    pick_init(&bs, sr, sr);
    int rc = -1;
    if (route_min(k, sr, dr, &k->rng[0].g, &minimal) < 0)
        goto done;
    long len_min = pick_hops(k, &minimal);
    if (len_min == 0)
        goto minimal_route; /* self-pair: nothing to adapt */
    long q_min = pick_first_qlen(k, &minimal);
    if (q_min < 0)
        goto done;
    if (k->has_thr && (double)q_min < k->thr_cap)
        goto minimal_route;
    double best_cost = (double)q_min;
    int have_best = 0;
    for (long it = 0; it < k->nI; it++) {
        long inter = fp_pick_intermediate(k, sr, dr, rng1);
        if (route_leg(k, sr, inter, rng1, &f) < 0 ||
            route_leg(k, inter, dr, rng1, &s) < 0)
            goto done;
        long q_ind = pick_first_qlen(k, &f);
        if (q_ind < 0)
            goto done;
        double cost;
        if (k->sf_mode) {
            long hops = pick_hops(k, &f) + pick_hops(k, &s);
            /* Same association as the Python scoring expression so the
             * doubles are bit-identical. */
            cost = (((double)hops / (double)len_min) * k->c_sf) *
                   (double)q_ind;
        } else {
            cost = k->cc * (double)q_ind;
        }
        if (cost < best_cost) {
            best_cost = cost;
            pick_clear(&bf);
            pick_clear(&bs);
            bf = f;
            bs = s;
            f.route = f.path = s.route = s.path = NULL; /* moved */
            have_best = 1;
        } else {
            pick_clear(&f);
            pick_clear(&s);
        }
    }
    if (have_best) {
        int c = emit_composed(k, &bf, &bs, 1);
        if (c != 0) {
            rc = c < 0 ? -1 : 0;
            goto done;
        }
    }
minimal_route:
    rc = emit_min(k, &minimal);
done:
    pick_clear(&minimal);
    pick_clear(&f);
    pick_clear(&s);
    pick_clear(&bf);
    pick_clear(&bs);
    return rc;
}

/* Resolve the hop ports of the route under construction from row_port
 * (output-port index at each router, what Route.ports holds). */
static int
rt_ports(Kernel *k)
{
    const int32_t *r = k->rt_r;
    for (int32_t h = 0; h + 1 < k->rt_n; h++) {
        int32_t gid = rt_port(k, r[h], r[h + 1]);
        if (gid < 0) {
            PyErr_Format(PyExc_IndexError,
                         "kernel: no channel from router %d to %d",
                         (int)r[h], (int)r[h + 1]);
            return -1;
        }
        k->rt_p[h] = gid - k->p_off[r[h]];
    }
    return 0;
}

/* Load slot si from the route under construction, then the ejection
 * port. */
static int
slot_load_route(Kernel *k, int32_t si, long eject)
{
    int32_t n = k->rt_n;
    if (rt_ports(k) < 0)
        return -1;
    Slot *p = SLOT(k, si);
    if (slot_route_size(k, p, n) < 0)
        return -1;
    uint16_t *port = slot_ports(p);
    uint8_t *vc = slot_vcs(p);
    for (int32_t h = 0; h + 1 < n; h++) {
        if ((uint32_t)k->rt_v[h] >= (uint32_t)k->V) {
            PyErr_Format(PyExc_IndexError, "kernel: route VC %d out of range",
                         (int)k->rt_v[h]);
            return -1;
        }
        port[h] = (uint16_t)k->rt_p[h];
        vc[h] = (uint8_t)k->rt_v[h];
    }
    port[n - 1] = (uint16_t)eject;
    vc[n - 1] = 0;
    p->kind = (uint8_t)k->rt_kind;
    return 0;
}

/* -- packet construction ---------------------------------------------------- */

/* Fast path: route in C, fill a slot under the next id of Network._pid,
 * account the send.  Network.make_packet + StatsCollector.record_inject,
 * golden- and fuzz-gated against them.  *d* is the message the packet of
 * *size* bytes was cut from. */
static int32_t
make_fast(Kernel *k, long node, const Desc *d, long long size, double t)
{
    if (d->dst < 0 || d->dst >= k->NN) {
        PyErr_Format(PyExc_IndexError,
                     "kernel: destination node %d out of range",
                     (int)d->dst);
        return -1;
    }
    long sr = k->n_rid[node];
    long dr = k->n_rid[d->dst];
    int rc;
    if (k->route_mode == 0) {
        Pick pk;
        rc = route_min(k, sr, dr, &k->rng[0].g, &pk);
        if (rc == 0)
            rc = emit_min(k, &pk);
        pick_clear(&pk);
    } else if (k->route_mode == 2) {
        rc = route_inr(k, sr, dr);
    } else {
        rc = route_ugal(k, sr, dr);
    }
    if (rc < 0)
        return -1;
    int32_t si = slot_alloc(k);
    if (si < 0)
        return -1;
    if (slot_load_route(k, si, k->n_eject[d->dst]) < 0) {
        slot_release(k, si);
        return -1;
    }
    Slot *p = SLOT(k, si);
    p->msg_id = d->msg_id;
    p->pid = ++*k->last_pid;
    p->src = (int32_t)node;
    p->dst = d->dst;
    p->size = size;
    p->gen_time = d->gen;
    p->send_time = t;
    acct_inject(k, t);
    k->fast_counts[FAST_MAKE] += 1;
    return si;
}

/* Escape: Network.make_packet (checker-wrapped, or a routing setup
 * with no C replica, see KernelEngine._fastpath_spec); the slot takes
 * its pid, kind and route, and the Packet is dropped.  The send time
 * and the inject accounting are the kernel's, as on the fast path. */
static int32_t
make_escape(Kernel *k, long node, const Desc *d, long long size, double t)
{
    double t0 = mono_ns();
    int32_t si = -1;
    PyObject *pkt = NULL, *v = NULL, *kind = NULL;
    {
        PyObject *mp = PyObject_GetAttr(k->net, str_make_packet);
        PyObject *mid = d->msg_id < 0 ? Py_NewRef(Py_None)
                                      : PyLong_FromLongLong(d->msg_id);
        if (mp != NULL && mid != NULL)
            pkt = PyObject_CallFunction(mp, "liLOd", node, (int)d->dst, size,
                                        mid, d->gen);
        Py_XDECREF(mid);
        Py_XDECREF(mp);
    }
    if (pkt == NULL)
        goto done;
    v = PyObject_GetAttr(pkt, str_pid);
    if (v == NULL)
        goto done;
    long long pid = PyLong_AsLongLong(v);
    if (pid == -1 && PyErr_Occurred())
        goto done;
    kind = PyObject_GetAttr(pkt, str_kind);
    if (kind == NULL)
        goto done;
    int ki = kind_index(k, kind);
    if (ki < 0)
        goto done;
    si = slot_alloc(k);
    if (si < 0)
        goto done;
    Slot *p = SLOT(k, si);
    p->src = (int32_t)node; /* route_read follows the route from here */
    if (slot_load_packet(k, si, pkt) < 0) {
        slot_release(k, si);
        si = -1;
        goto done;
    }
    p->msg_id = d->msg_id;
    p->pid = pid;
    p->dst = d->dst;
    p->size = size;
    p->gen_time = d->gen;
    p->send_time = t;
    p->kind = (uint8_t)ki;
    acct_inject(k, t);
done:
    Py_XDECREF(kind);
    Py_XDECREF(v);
    Py_XDECREF(pkt);
    if (k->running) { /* sends made outside run() are not escapes */
        k->esc_ns[ESC_MAKE] += mono_ns() - t0;
        k->esc_counts[ESC_MAKE] += 1;
    }
    return si;
}

/* -- NIC send (the object NIC's try_send over kernel state) ------------------ */

/* Callers guarantee the NIC is idle at (t, s).  Credits drain lazily;
 * a credit stall pushes a wake at the earliest in-flight arrival key
 * (the elided credit_return event that resumes the object NIC). */
static int
nic_send(Kernel *k, long node, double t, long long s)
{
    int32_t cred = k->n_cred[node];
    KRing *arr = &k->n_arr[node];
    if (cred <= 0 && (k->n_mat[node] || arr->len)) {
        cred += credit_drain(arr, &k->n_mat[node], t, s);
        k->n_cred[node] = cred;
    }
    DRing *q = &k->n_q[node];
    if (cred <= 0) {
        if (q->len) {
            k->n_stalls[node] += 1;
            if (arr->len) {
                CKey h = arr->buf[arr->head];
                if (kpush(k, LANE_HEAP, h.t, h.s, OP_NWAKE, node, 0, 0) < 0)
                    return -1;
            }
        }
        return 0;
    }
    if (!q->len)
        return 0;
    Desc *h = dring_at(q, 0);
    if (h->turn_over) {
        /* To the tail (it was just popped, so the ring never grows). */
        h->turn_over = 0;
        if (q->len > 1 && dring_push(q, dring_pop(q)) < 0)
            return -1;
        h = dring_at(q, 0);
    }
    /* Cut one packet off the head message; d keeps its id and post
     * time for the packet. */
    Desc d = *h;
    long long size = h->left < k->pkt_bytes ? h->left : k->pkt_bytes;
    h->left -= size;
    k->n_qp[node] -= 1;
    if (!h->left)
        dring_pop(q);
    else
        h->turn_over = h->interleave;
    int32_t si = (k->running && k->route_mode >= 0)
                     ? make_fast(k, node, &d, size, t)
                     : make_escape(k, node, &d, size, t);
    if (si < 0)
        return -1;
    k->n_cred[node] = cred - 1;
    k->seq += 1; /* reserved: the elided NIC link-free event */
    double bt = t + k->SER;
    long long bs = k->seq;
    k->n_busy_t[node] = bt;
    k->n_busy_s[node] = bs;
    k->seq += 1;
    if (kpush(k, LANE_SL, t + k->SL, k->seq, OP_RECV, k->n_in[node], 0,
              si) < 0)
        return -1;
    if (q->len) {
        /* Work already waiting: the link-free retry would send, so
         * wake at its reserved key. */
        if (kpush(k, LANE_SER, bt, bs, OP_NWAKE, node, 0, 0) < 0)
            return -1;
        k->n_wake[node] = 1;
    } else {
        k->n_wake[node] = 0;
    }
    return 0;
}

/* Queue a message of *size* bytes at the current time (NIC.submit); a
 * busy NIC gets at most one wake at its reserved link-free key. */
static int
nic_enqueue(Kernel *k, long node, int32_t dst, long long size,
            long long msg_id, int interleave)
{
    double t = k->now;
    long long s = k->cs;
    Desc d = {t, size, msg_id, dst, (uint8_t)interleave, 0};
    if (dring_push(&k->n_q[node], d) < 0)
        return -1;
    k->n_qp[node] += (size - 1) / k->pkt_bytes + 1;
    double bt = k->n_busy_t[node];
    long long bs = k->n_busy_s[node];
    if (is_busy(t, s, bt, bs)) {
        if (!k->n_wake[node]) {
            if (kpush(k, LANE_HEAP, bt, bs, OP_NWAKE, node, 0, 0) < 0)
                return -1;
            k->n_wake[node] = 1;
        }
        return 0;
    }
    return nic_send(k, node, t, s);
}

/* -- switch pipeline --------------------------------------------------------- */

static int try_transfer(Kernel *k, long in_gid, long vc, double t, long long s);

/* One admitted input->output move: the credit upstream (a reserved,
 * lazily drained key) then the switch traversal. */
static int
transfer_one(Kernel *k, long in_gid, long vc, long gid, int32_t si,
             double t, long long s)
{
    long upp = k->in_up_port[in_gid];
    if (upp >= 0) {
        k->seq += 1;
        double at = t + k->LINK;
        long upv = upp * k->V + vc;
        if (credit_push(&k->pv_arr[upv], &k->pv_mat[upv], at, k->seq, t, s,
                        &k->arr_hwm) < 0)
            return -1;
        if (k->pv_cred[upv] == 0 && k->pv_oq[upv].len &&
            !is_busy(t, s, k->p_busy_t[upp], k->p_busy_s[upp])) {
            /* Idle upstream port blocked on this credit: its
             * credit_return would transmit. */
            if (kpush(k, LANE_LINK, at, k->seq, OP_PWAKE, upp, 0, 0) < 0)
                return -1;
        }
    } else {
        long upn = k->in_up_node[in_gid];
        if (upn >= 0) {
            k->seq += 1;
            double at = t + k->LINK;
            if (credit_push(&k->n_arr[upn], &k->n_mat[upn], at, k->seq, t, s,
                            &k->narr_hwm) < 0)
                return -1;
            if (k->n_cred[upn] == 0 && k->n_q[upn].len) {
                if (kpush(k, LANE_LINK, at, k->seq, OP_NWAKE, upn, 0, 0) < 0)
                    return -1;
            }
        }
    }
    k->seq += 1;
    Slot *p = SLOT(k, si);
    long pv = gid * k->V + S_VC(p, p->hop);
    return kpush(k, LANE_SWITCH, t + k->SWITCH, k->seq, OP_ENTER, pv, si,
                 gid);
}

/* The object Router._try_transfer: drain an input VC queue into output
 * queues while space lasts. */
static int
try_transfer(Kernel *k, long in_gid, long vc, double t, long long s)
{
    IRing *q = &k->iv_q[in_gid * k->V + vc];
    long base = k->in_pbase[in_gid];
    while (q->len) {
        int32_t si = q->buf[q->head];
        Slot *p = SLOT(k, si);
        long gid = base + S_PORT(p, p->hop);
        long pv = gid * k->V + S_VC(p, p->hop);
        if (k->pv_occ[pv] >= k->OQ_CAP)
            return iring_push(&k->p_pend[gid], (int32_t)(in_gid * k->V + vc));
        k->pv_occ[pv] += 1;
        iring_pop(q);
        if (transfer_one(k, in_gid, vc, gid, si, t, s) < 0)
            return -1;
    }
    return 0;
}

/* Single-pass scan with the object version's exact rotate semantics:
 * on a match, the skipped entries move to the back in order. */
static int
admit_pending(Kernel *k, long gid, long freed_vc, double t, long long s)
{
    IRing *pend = &k->p_pend[gid];
    for (int32_t i = 0; i < pend->len; i++) {
        int32_t iv = *iring_at(pend, i);
        IRing *q = &k->iv_q[iv];
        if (q->len == 0) {
            PyErr_SetString(PyExc_RuntimeError,
                            "kernel: parked input has an empty queue");
            return -1;
        }
        Slot *p = SLOT(k, q->buf[q->head]);
        if (S_VC(p, p->hop) == freed_vc) {
            for (int32_t j = 0; j < i; j++) {
                int32_t x = iring_pop(pend);
                iring_push(pend, x); /* same length: never grows */
            }
            iring_pop(pend);
            return try_transfer(k, iv / k->V, iv % k->V, t, s);
        }
    }
    return 0;
}

/* The object Router._try_transmit; callers guarantee the port is idle
 * at (t, s).  One packet per invocation. */
static int
try_transmit(Kernel *k, long gid, double t, long long s)
{
    long V = k->V;
    long vc = k->p_rr[gid];
    long base = gid * V;
    int has_cred = k->p_has_cred[gid];
    double best_t = 0.0;
    long long best_s = 0;
    int have_best = 0;
    for (long n = 0; n < V; n++) {
        if (vc >= V)
            vc -= V;
        long pv = base + vc;
        IRing *oq = &k->pv_oq[pv];
        if (oq->len == 0) {
            vc += 1;
            continue;
        }
        if (has_cred) {
            int32_t cr = k->pv_cred[pv];
            if (cr <= 0) {
                KRing *arr = &k->pv_arr[pv];
                if (k->pv_mat[pv] || arr->len) {
                    cr += credit_drain(arr, &k->pv_mat[pv], t, s);
                    k->pv_cred[pv] = cr;
                }
                if (cr <= 0) {
                    /* Blocked on credits: remember the earliest
                     * in-flight arrival as a wake candidate. */
                    if (arr->len) {
                        CKey h = arr->buf[arr->head];
                        if (!have_best || h.t < best_t ||
                            (h.t == best_t && h.s < best_s)) {
                            best_t = h.t;
                            best_s = h.s;
                            have_best = 1;
                        }
                    }
                    vc += 1;
                    continue;
                }
            }
            k->pv_cred[pv] = cr - 1;
        }
        int32_t si = iring_pop(oq);
        k->p_oqtot[gid] -= 1;
        k->pv_occ[pv] -= 1;
        k->p_queued[gid] -= 1;
        k->p_sent[gid] += 1;
        long nvc = vc + 1;
        k->p_rr[gid] = (int32_t)(nvc < V ? nvc : 0);
        k->seq += 1; /* reserved: the elided port link-free event */
        double bt = t + k->SER;
        long long bs = k->seq;
        k->p_busy_t[gid] = bt;
        k->p_busy_s[gid] = bs;
        k->seq += 1;
        long din = k->p_dest_in[gid];
        if (din < 0) {
            if (kpush(k, LANE_SL, t + k->SL, k->seq, OP_DELIVER, 0, 0, si) < 0)
                return -1;
        } else {
            SLOT(k, si)->hop += 1;
            if (kpush(k, LANE_SL, t + k->SL, k->seq, OP_RECV, din, vc, si) < 0)
                return -1;
        }
        if (k->p_oqtot[gid] > 0) {
            /* More output-queue work: the link-free retry would
             * transmit, so wake at its reserved key. */
            if (kpush(k, LANE_SER, bt, bs, OP_PWAKE, gid, 0, 0) < 0)
                return -1;
            k->p_wake[gid] = 1;
        } else {
            k->p_wake[gid] = 0;
        }
        return admit_pending(k, gid, vc, t, s);
    }
    if (have_best) /* idle, every queued VC credit-blocked */
        return kpush(k, LANE_HEAP, best_t, best_s, OP_PWAKE, gid, 0, 0);
    return 0;
}

/* Enter output queue pv of port gid, then transmit or wake. */
static int
enter_oq(Kernel *k, long pv, int32_t si, long gid, double t, long long s)
{
    if (iring_push(&k->pv_oq[pv], si) < 0)
        return -1;
    k->p_oqtot[gid] += 1;
    double bt = k->p_busy_t[gid];
    long long bs = k->p_busy_s[gid];
    if (is_busy(t, s, bt, bs)) {
        if (!k->p_wake[gid]) {
            if (kpush(k, LANE_HEAP, bt, bs, OP_PWAKE, gid, 0, 0) < 0)
                return -1;
            k->p_wake[gid] = 1;
        }
        return 0;
    }
    return try_transmit(k, gid, t, s);
}

/* -- fault diverts ------------------------------------------------------------
 *
 * FaultManager._rewrite in C.  A packet about to enter the output queue
 * of a dead port (ENTER), or queued there when its link fails
 * (drain_port), is dropped under the "drop" policy.  Otherwise its route
 * gets a new tail from its current hop j: a packet already at its
 * destination router ejects there; any other takes one of the pair's
 * live minimal candidates as FaultManager._live_candidates gives them
 * (the route table filtered by p_dead, else the detour, else a
 * RouteCache fill for a pair outside the table), drawn with randbelow on
 * the resident copy of FaultManager.rng when several survive.  The new
 * hops are labelled min(j + i, V - 1); the labels before hop j, the
 * ejection port and the route kind stay.  Only the slot changes: no
 * Packet exists for a packet in flight.  Each reroute and drop is added
 * to FaultManager.counts through the view bind_faults took, so Python
 * reads them live.
 */

/* Resize slot p's route to n entries keeping its first *keep* ports and
 * VCs. */
static int
slot_route_keep(Kernel *k, Slot *p, Py_ssize_t n, Py_ssize_t keep)
{
    if (p->nports <= SLOT_INLINE && n <= SLOT_INLINE) {
        p->nports = (uint16_t)n; /* the inline entries stay where they are */
        return 0;
    }
    uint16_t *port = (uint16_t *)PyMem_Malloc(
        (size_t)(keep ? keep : 1) * (sizeof(uint16_t) + sizeof(uint8_t)));
    if (port == NULL) {
        PyErr_NoMemory();
        return -1;
    }
    uint8_t *vc = (uint8_t *)(port + keep);
    memcpy(port, slot_ports(p), (size_t)keep * sizeof(uint16_t));
    memcpy(vc, slot_vcs(p), (size_t)keep);
    int rc = slot_route_size(k, p, n);
    if (rc == 0) {
        memcpy(slot_ports(p), port, (size_t)keep * sizeof(uint16_t));
        memcpy(slot_vcs(p), vc, (size_t)keep);
    }
    PyMem_Free(port);
    return rc;
}

/* Divert the packet in slot si, headed for dead port gid.  Returns 1
 * rerouted (*npv / *ngid: the port-VC and port it enters instead), 0
 * dropped (slot released), -1 on error. */
static int
fault_divert(Kernel *k, int32_t si, long gid, long *npv, long *ngid)
{
    if (k->fm_drop) {
        k->fm_counts[1] += 1;
        slot_release(k, si);
        return 0;
    }
    Slot *p = SLOT(k, si);
    int32_t j = p->hop, n = p->nports;
    const uint16_t *port = slot_ports(p);
    long origin = k->p_rid[gid], dst = origin;
    for (int32_t h = j; h + 1 < n; h++)
        dst = port_next_router(k, k->p_off[dst] + port[h]);
    uint16_t eject = port[n - 1];
    int32_t tail = 1; /* routers of the new tail, the current one first */
    if (dst != origin) {
        Pick pk;
        int rc = route_min(k, origin, dst, &k->fm_rng.g, &pk);
        if (rc == 0 && (tail = k->rt_n = rt_put_path(k, &pk, 0)) < 0)
            rc = -1;
        pick_clear(&pk);
        if (rc < 0 || rt_ports(k) < 0)
            return -1;
    }
    if (slot_route_keep(k, p, j + tail, j) < 0)
        return -1;
    uint16_t *nport = slot_ports(p);
    uint8_t *nvc = slot_vcs(p);
    for (int32_t i = 0; i + 1 < tail; i++) {
        nport[j + i] = (uint16_t)k->rt_p[i];
        nvc[j + i] = (uint8_t)(j + i < k->V - 1 ? j + i : k->V - 1);
    }
    nport[j + tail - 1] = eject;
    nvc[j + tail - 1] = 0;
    k->fm_counts[0] += 1;
    *ngid = k->p_off[origin] + nport[j];
    *npv = *ngid * k->V + nvc[j];
    return 1;
}

/* -- opcode handlers ------------------------------------------------------- */

static int
do_recv(Kernel *k, double t, long long s, long a, long b, int32_t si)
{
    Slot *p = SLOT(k, si);
    long gid = k->in_pbase[a] + S_PORT(p, p->hop);
    k->p_queued[gid] += 1;
    IRing *q = &k->iv_q[a * k->V + b];
    if (q->len) /* behind others: no transfer attempt */
        return iring_push(q, si);
    /* Head-of-queue fast path: state-identical to append + try_transfer
     * on a one-element queue. */
    long pv = gid * k->V + S_VC(p, p->hop);
    if (k->pv_occ[pv] >= k->OQ_CAP) {
        if (iring_push(q, si) < 0)
            return -1;
        return iring_push(&k->p_pend[gid], (int32_t)(a * k->V + b));
    }
    k->pv_occ[pv] += 1;
    return transfer_one(k, a, b, gid, si, t, s);
}

static int
do_enter(Kernel *k, double t, long long s, long pv, int32_t si, long gid)
{
    if (k->p_dead[gid]) {
        /* Failed link: divert (reroute or drop) at this router,
         * mirroring the object backend's _enter_oq dead branch. */
        if (k->fm == NULL) {
            PyErr_SetString(PyExc_RuntimeError,
                            "dead port entered with no fault manager");
            return -1;
        }
        long npv = 0, ngid = 0;
        int kept = fault_divert(k, si, gid, &npv, &ngid);
        if (kept < 0)
            return -1;
        k->pv_occ[pv] -= 1;
        k->p_queued[gid] -= 1;
        if (kept) {
            k->pv_occ[npv] += 1;
            k->p_queued[ngid] += 1;
        }
        if (admit_pending(k, gid, pv - gid * k->V, t, s) < 0)
            return -1;
        if (!kept)
            return 0;
        pv = npv;
        gid = ngid;
    }
    return enter_oq(k, pv, si, gid, t, s);
}

/* Free *node*'s chunk and MT state. */
static void
gen_drop(Kernel *k, long node)
{
    PyMem_Free(k->g_t[node]);
    PyMem_Free(k->g_d[node]);
    k->g_t[node] = NULL;
    k->g_d[node] = NULL;
    k->g_i[node] = k->g_n[node] = 0;
    if (k->g_st[node] != NULL) {
        PyMem_Free(k->g_st[node]);
        k->g_st[node] = NULL;
        k->g_states -= 1;
    }
}

/* Draw *node*'s next chunk over the consumed one.  A chunk whose last
 * entry is not the sentinel was drawn by a node still holding its
 * state, and filled to GEN_CHUNK entries. */
static void
gen_refill(Kernel *k, long node)
{
    GenState *st = k->g_st[node];
    int done;
    k->g_n[node] = gen_fill(&k->gen, st, node, k->g_t[node], k->g_d[node],
                            GEN_CHUNK, &done);
    k->g_refills += 1;
    if (done) {
        PyMem_Free(st);
        k->g_st[node] = NULL;
        k->g_states -= 1;
    }
}

/* The object engine's generate event: queue the entry's packet (if
 * any), then schedule the stream's next entry. */
static int
do_gen(Kernel *k, long node)
{
    int32_t i = k->g_i[node];
    if (i >= k->g_n[node]) {
        PyErr_SetString(PyExc_RuntimeError, "kernel: GEN past stream end");
        return -1;
    }
    int32_t dst = k->g_d[node][i];
    if (dst == -2) /* past-horizon sentinel */
        return 0;
    /* NIC.submit(dst, packet_bytes) at this event's key, to which the
     * run loop set the clock. */
    if (dst >= 0 && nic_enqueue(k, node, dst, k->pkt_bytes, -1, 0) < 0)
        return -1;
    if (++i == k->g_n[node]) {
        gen_refill(k, node);
        i = 0;
    }
    k->g_i[node] = i;
    k->seq += 1;
    return kpush(k, LANE_HEAP, k->g_t[node][i], k->seq, OP_GEN, node, 0, 0);
}

/* -- message countdown --------------------------------------------------------
 *
 * A closed-loop driver arms the countdown through Network.watch_messages
 * (``watch`` here) with four tables indexed by message id -- an int32
 * array of the packets each message still needs, one byte per message
 * that is nonzero when its completion releases other messages, a
 * float64 array that receives each message's completion time and its
 * int32 group (a WorkloadDriver phase) -- and an int64 table of one row of
 * nkind per group.  Every delivery counts down here, through the
 * tables' buffers, whether or not listeners observe it (Network.deliver
 * applies the same rule on the object engine), and counts the packet
 * at its group and kind; a group id, which Python may still write, is
 * checked against the rows as it is used.  When a message's last
 * packet is delivered, its completion time is written, and only a
 * message that releases others then escapes to the callback
 * (ESC_DONE): a completion that releases nothing runs no Python.
 * Packets with no message id, one outside the table or one of a
 * message already complete are not counted.  A callback reads the
 * StatsCollector's counters and times as they stand, as a listener or
 * a CALL does: the accounting writes them in place. */

/* Release the watched tables and the callback (m_n = 0 disarms). */
static void
watch_drop(Kernel *k)
{
    for (int i = 0; i < MV_N; i++)
        if (k->m_view[i].obj != NULL)
            PyBuffer_Release(&k->m_view[i]);
    k->m_n = k->m_ngroups = 0;
    Py_CLEAR(k->m_done);
}

/* Count down the watched message *mid* (a packet's msg_id, -1 for
 * none) for one packet of route kind *kind* delivered at *t*.  Returns
 * 1 if this completed the message and it releases others, 0 if not,
 * and -1 with an IndexError for a group id outside the kind table. */
static inline int
count_down(Kernel *k, long long mid, int kind, double t)
{
    if (mid < 0 || mid >= k->m_n || k->m_left[mid] <= 0)
        return 0;
    int32_t g = k->m_group[mid];
    if (g < 0 || g >= k->m_ngroups) {
        PyErr_Format(PyExc_IndexError,
                     "kernel: message %lld's group %ld outside [0, %zd)",
                     mid, (long)g, k->m_ngroups);
        return -1;
    }
    k->m_tally[g * k->nkind + kind] += 1;
    if (--k->m_left[mid] != 0)
        return 0;
    k->m_time[mid] = t;
    return k->m_rel[mid] != 0;
}

/* Escape: message *mid*, which releases others, is complete; call the
 * completion callback. */
static int
msg_done(Kernel *k, Py_ssize_t mid)
{
    double t0 = mono_ns();
    /* The callback may re-arm the countdown, which drops the kernel's
     * reference to it. */
    PyObject *fn = Py_NewRef(k->m_done);
    PyObject *m = PyLong_FromSsize_t(mid);
    PyObject *r = m != NULL ? PyObject_CallOneArg(fn, m) : NULL;
    Py_XDECREF(m);
    Py_DECREF(fn);
    k->esc_ns[ESC_DONE] += mono_ns() - t0;
    k->esc_counts[ESC_DONE] += 1;
    if (r == NULL)
        return -1;
    Py_DECREF(r);
    return 0;
}

/* Escape: run the delivery listeners on the delivered slot *si* (its
 * delivery already accounted in the collector's arrays), as
 * Network.deliver does on the object engine: build the slot's Packet;
 * recycle the slot, so the listeners (and the checker's audits) see the
 * packet delivered; call every listener in registration order, one a
 * listener registers included; then count the message down. */
static int
deliver_listeners(Kernel *k, double t, int32_t si)
{
    double t0 = mono_ns();
    Slot *p = SLOT(k, si);
    PyObject *pkt = slot_packet(k, p, t);
    if (pkt == NULL)
        return -1;
    long long mid = p->msg_id;
    int kind = p->kind;
    slot_release(k, si);
    int rc = 0;
    for (Py_ssize_t i = 0; rc == 0 && i < PyList_GET_SIZE(k->listeners); i++) {
        PyObject *fn = Py_NewRef(PyList_GET_ITEM(k->listeners, i));
        PyObject *r = PyObject_CallOneArg(fn, pkt);
        Py_DECREF(fn);
        if (r == NULL)
            rc = -1;
        Py_XDECREF(r);
    }
    Py_DECREF(pkt);
    if (rc == 0)
        rc = count_down(k, mid, kind, t);
    k->esc_ns[ESC_DELIVER] += mono_ns() - t0;
    k->esc_counts[ESC_DELIVER] += 1;
    return rc > 0 ? msg_done(k, (Py_ssize_t)mid) : rc;
}

/* The packet in slot *si* reaches its NIC at *t*: account it, then
 * either run the listeners or, with none registered, count its message
 * down and recycle the slot without a Python call. */
static int
do_deliver(Kernel *k, double t, int32_t si)
{
    Slot *p = SLOT(k, si);
    if (acct_eject(k, p, t) < 0)
        return -1;
    if (PyList_GET_SIZE(k->listeners))
        return deliver_listeners(k, t, si);
    k->fast_counts[FAST_DELIVER] += 1;
    long long mid = p->msg_id;
    int rc = count_down(k, mid, p->kind, t);
    slot_release(k, si);
    return rc > 0 ? msg_done(k, (Py_ssize_t)mid) : rc;
}

static int
do_call(Kernel *k, PyObject *fn, PyObject *args)
{
    /* Caller owns fn/args and decrefs them after we return. */
    double t0 = mono_ns();
    PyObject *r = PyObject_Call(fn, args, NULL);
    k->esc_ns[ESC_CALL] += mono_ns() - t0;
    k->esc_counts[ESC_CALL] += 1;
    if (r == NULL)
        return -1;
    Py_DECREF(r);
    return 0;
}


/* -- per-run bindings -------------------------------------------------------- */

/* Drop every per-run reference (safe on a partially bound kernel). */
static void
unbind_refs(Kernel *k)
{
    Py_CLEAR(k->listeners);
    Py_CLEAR(k->min_rows);
    Py_CLEAR(k->leg_rows);
    Py_CLEAR(k->minimal_fill);
    Py_CLEAR(k->leg_fill);
    Py_CLEAR(k->compose);
    crng_drop(&k->fm_rng);
    Py_CLEAR(k->fm);
    if (k->fm_counts_view.obj != NULL)
        PyBuffer_Release(&k->fm_counts_view);
    k->fm_counts = NULL;
    PyMem_Free(k->pool);
    k->pool = NULL;
    k->npool = 0;
    for (int i = 0; i < k->rng_n; i++) /* without exporting them */
        crng_drop(&k->rng[i]);
    k->rng_n = 0;
    k->route_mode = -1;
}

/* End residency: push the fault RNG and the routing RNG streams back to
 * Python.  Always drops the references, even if an export step fails. */
static int
export_resident(Kernel *k)
{
    int rc = 0;
    if (k->fm_rng.obj != NULL && crng_export(&k->fm_rng) < 0)
        rc = -1;
    crng_drop(&k->fm_rng);
    for (int i = 0; i < k->rng_n; i++) {
        if (k->rng[i].obj != NULL && crng_export(&k->rng[i]) < 0)
            rc = -1;
        crng_drop(&k->rng[i]);
    }
    k->rng_n = 0;
    return rc;
}

static int
fp_long(PyObject *fp, const char *name, long *out)
{
    PyObject *v = get_attr(fp, name);
    if (v == NULL)
        return -1;
    *out = PyLong_AsLong(v);
    Py_DECREF(v);
    return (*out == -1 && PyErr_Occurred()) ? -1 : 0;
}

/* Optional float: *has = 0 for None. */
static int
fp_opt_double(PyObject *fp, const char *name, double *out, int *has)
{
    PyObject *v = get_attr(fp, name);
    if (v == NULL)
        return -1;
    if (v == Py_None) {
        *has = 0;
        *out = 0.0;
    } else {
        *has = 1;
        *out = PyFloat_AsDouble(v);
    }
    Py_DECREF(v);
    return (*out == -1.0 && PyErr_Occurred()) ? -1 : 0;
}

/* A one-dimensional view of *obj* (*flags* plus PyBUF_FORMAT) of *n*
 * items, or of any number when *n* < 0, each of *size* bytes in the
 * struct format *fmt*, after an optional native or little-endian
 * prefix ('@', '=', '<').  Else a TypeError "kernel: <what> must be
 * <type>", and no view is held (view->obj is NULL) on any failure.
 * Every buffer the kernel binds is taken through here. */
static int
bind_buffer(PyObject *obj, Py_buffer *view, int flags, const char *fmt,
            Py_ssize_t size, Py_ssize_t n, const char *what,
            const char *type)
{
    if (PyObject_GetBuffer(obj, view, flags | PyBUF_FORMAT) < 0) {
        view->obj = NULL;
        return -1;
    }
    const char *f = view->format;
    if (f != NULL && (f[0] == '@' || f[0] == '=' || f[0] == '<'))
        f += 1;
    if (view->ndim != 1 || view->itemsize != size || f == NULL ||
        strcmp(f, fmt) != 0 || (n >= 0 && view->shape[0] != n)) {
        PyBuffer_Release(view);
        PyErr_Format(PyExc_TypeError, "kernel: %s must be %s", what, type);
        return -1;
    }
    return 0;
}

/* Bind the armed FaultManager of the spec (its fault_* fields): a
 * resident copy of its reroute RNG, its policy and a writable view of
 * its counts, an array('q') of (reroutes, drops). */
static int
bind_faults(Kernel *k, PyObject *fp)
{
    PyObject *fm = get_attr(fp, "fault_manager");
    if (fm == NULL)
        return -1;
    if (fm == Py_None) {
        Py_DECREF(fm);
        return 0;
    }
    k->fm = fm;
    long drop;
    PyObject *counts = NULL;
    if (fp_long(fp, "fault_drop", &drop) < 0 ||
        (counts = get_attr(fp, "fault_counts")) == NULL)
        return -1;
    int rc = bind_buffer(counts, &k->fm_counts_view, PyBUF_CONTIG, "q",
                         sizeof(long long), 2, "the fault counts",
                         "an array('q') of two");
    Py_DECREF(counts);
    if (rc < 0)
        return -1;
    k->fm_counts = (long long *)k->fm_counts_view.buf;
    k->fm_drop = drop != 0;
    if ((k->fm_rng.obj = get_attr(fp, "fault_rng")) == NULL)
        return -1;
    if (crng_import(&k->fm_rng) < 0) {
        crng_drop(&k->fm_rng);
        return -1;
    }
    return 0;
}

/* Bind the delivery listener list and the fast-path spec (a namespace
 * from KernelEngine._fastpath_spec, or None): the RouteCache hooks for
 * route mode and fault diverts, and the fault manager.  Route mode
 * makes the routing RNG streams resident in C. */
static int
bind_run(Kernel *k, PyObject *fp)
{
    k->route_mode = -1;
    k->listeners = PyObject_GetAttr(k->net, str_delivery_listeners);
    if (k->listeners == NULL)
        return -1;
    if (!PyList_Check(k->listeners)) {
        PyErr_SetString(PyExc_TypeError,
                        "kernel: Network._delivery_listeners is not a list");
        return -1;
    }
    if (fp == Py_None)
        return 0;

    long mode, sf, nI;
    if (fp_long(fp, "route_mode", &mode) < 0 || bind_faults(k, fp) < 0)
        return -1;
    if (mode >= 0 || k->fm != NULL) {
#define FPGETO(field, name)                                               \
    if ((k->field = get_attr(fp, name)) == NULL)                          \
        return -1;
        FPGETO(min_rows, "min_rows")
        FPGETO(leg_rows, "leg_rows")
        FPGETO(minimal_fill, "minimal_fill")
        FPGETO(leg_fill, "leg_fill")
        FPGETO(compose, "compose")
#undef FPGETO
        if (!PyList_Check(k->min_rows) ||
            PyList_GET_SIZE(k->min_rows) != k->NR ||
            !PyList_Check(k->leg_rows) ||
            PyList_GET_SIZE(k->leg_rows) != k->NR) {
            PyErr_SetString(PyExc_ValueError,
                            "kernel: RouteCache rows do not match the routers");
            return -1;
        }
    }
    if (mode < 0)
        return 0;
    if (fp_long(fp, "n_indirect", &nI) < 0 || fp_long(fp, "sf_mode", &sf) < 0)
        return -1;
    k->nI = nI;
    k->sf_mode = (int)sf;
    int has = 0;
    if (fp_opt_double(fp, "c", &k->cc, &has) < 0 ||
        fp_opt_double(fp, "c_sf", &k->c_sf, &has) < 0 ||
        fp_opt_double(fp, "thr_cap", &k->thr_cap, &k->has_thr) < 0)
        return -1;
    PyObject *pool = get_attr(fp, "pool");
    if (pool == NULL)
        return -1;
    if (pool != Py_None) {
        PyObject *seq = PySequence_Fast(pool, "kernel: pool is not a sequence");
        Py_DECREF(pool);
        if (seq == NULL)
            return -1;
        Py_ssize_t n = PySequence_Fast_GET_SIZE(seq);
        k->pool = (int32_t *)PyMem_Malloc((size_t)(n ? n : 1) * sizeof(int32_t));
        if (k->pool == NULL) {
            Py_DECREF(seq);
            PyErr_NoMemory();
            return -1;
        }
        for (Py_ssize_t i = 0; i < n; i++) {
            long v = PyLong_AsLong(PySequence_Fast_GET_ITEM(seq, i));
            if (v == -1 && PyErr_Occurred()) {
                Py_DECREF(seq);
                return -1;
            }
            if (v < 0 || v >= k->NR) {
                Py_DECREF(seq);
                PyErr_Format(PyExc_IndexError,
                             "kernel: intermediate %ld out of range", v);
                return -1;
            }
            k->pool[i] = (int32_t)v;
        }
        k->npool = (long)n;
        Py_DECREF(seq);
    } else {
        Py_DECREF(pool);
    }

    /* RNG residency. */
    PyObject *rngs = get_attr(fp, "rngs");
    if (rngs == NULL)
        return -1;
    Py_ssize_t nr = PyList_Check(rngs) ? PyList_GET_SIZE(rngs) : -1;
    if (nr < 0 || nr > 2) {
        Py_DECREF(rngs);
        PyErr_SetString(PyExc_ValueError,
                        "kernel: fast-path rngs must be a list of at most 2");
        return -1;
    }
    for (Py_ssize_t i = 0; i < nr; i++) {
        k->rng[i].obj = Py_NewRef(PyList_GET_ITEM(rngs, i));
        k->rng[i].gauss = NULL;
        k->rng_n = (int)i + 1;
        if (crng_import(&k->rng[i]) < 0) {
            Py_DECREF(rngs);
            for (int j = 0; j < k->rng_n; j++)
                crng_drop(&k->rng[j]);
            k->rng_n = 0;
            return -1;
        }
    }
    Py_DECREF(rngs);
    k->route_mode = (int)mode;
    return 0;
}

/* -- Kernel methods ---------------------------------------------------------- */

/* call(when, fn, args): queue a CALL of fn(*args) at *when* under the
 * next sequence number, as every engine.schedule() does. */
static PyObject *
Kernel_call(Kernel *k, PyObject *args)
{
    double when;
    PyObject *fn, *fargs;
    if (!PyArg_ParseTuple(args, "dOO!", &when, &fn, &PyTuple_Type, &fargs))
        return NULL;
    if (!PyCallable_Check(fn)) {
        PyErr_SetString(PyExc_TypeError, "kernel: call needs a callable");
        return NULL;
    }
    int32_t ci = call_new(k, fn, fargs);
    if (ci < 0)
        return NULL;
    k->seq += 1;
    if (kpush(k, LANE_HEAP, when, k->seq, OP_CALL, ci, 0, 0) < 0) {
        call_release(k, ci);
        return NULL;
    }
    Py_RETURN_NONE;
}

static int
check_built(Kernel *k)
{
    if (!k->built) {
        PyErr_SetString(PyExc_RuntimeError, "kernel: not built");
        return -1;
    }
    return 0;
}

static PyObject *
Kernel_run(Kernel *k, PyObject *args)
{
    PyObject *until_o = Py_None, *maxev_o = Py_None, *fp = Py_None;
    if (!PyArg_ParseTuple(args, "|OOO", &until_o, &maxev_o, &fp))
        return NULL;
    if (check_built(k) < 0)
        return NULL;
    if (k->running) {
        PyErr_SetString(PyExc_RuntimeError, "kernel: run() is not re-entrant");
        return NULL;
    }
    double cap = Py_HUGE_VAL;
    if (until_o != Py_None) {
        cap = PyFloat_AsDouble(until_o);
        if (cap == -1.0 && PyErr_Occurred())
            return NULL;
    }
    long long rem = -1;
    if (maxev_o != Py_None) {
        rem = PyLong_AsLongLong(maxev_o);
        if (rem == -1 && PyErr_Occurred())
            return NULL;
    }

    long long executed = 0;
    int failed = 0;
    if (bind_run(k, fp) < 0) {
        failed = 1;
    } else {
        k->running = 1;
        double t_run0 = mono_ns();
        for (;;) {
            /* One event in SAMPLE_EVERY times its pop (finding the
             * least key included) apart from its handler: the last of
             * each SAMPLE_EVERY, so a run's first event, often a
             * driver's CALL that sends every first message, is not
             * weighed like SAMPLE_EVERY ordinary ones. */
            int smp = (executed & (SAMPLE_EVERY - 1)) == SAMPLE_EVERY - 1;
            double t0 = smp ? mono_ns() : 0.0;
            const Event *head;
            int q = next_queue(k, &head);
            if (q < 0 || head->t > cap || rem == 0)
                break;
            Event ev = q == LANE_HEAP ? heap_pop_ev(k)
                                      : ering_pop(&k->lanes[q]);
            double t1 = smp ? mono_ns() : 0.0;
            double t = ev.t;
            k->now = t;
            k->cs = ev.seq;
            rem -= 1;
            executed += 1;
            k->executed += 1;
            k->op_counts[ev.op] += 1;
            if ((executed & 0x3FFF) == 0 && PyErr_CheckSignals() < 0) {
                if (ev.op == OP_CALL)
                    call_release(k, ev.a);
                failed = 1;
                break;
            }
            int rc;
            switch (ev.op) {
            case OP_RECV:
                rc = do_recv(k, t, ev.seq, ev.a, ev.b, ev.c);
                break;
            case OP_ENTER:
                rc = do_enter(k, t, ev.seq, ev.a, ev.b, ev.c);
                break;
            case OP_PWAKE:
                rc = is_busy(t, ev.seq, k->p_busy_t[ev.a], k->p_busy_s[ev.a])
                         ? 0 : try_transmit(k, ev.a, t, ev.seq);
                break;
            case OP_DELIVER:
                rc = do_deliver(k, t, ev.c);
                break;
            case OP_NWAKE:
                rc = is_busy(t, ev.seq, k->n_busy_t[ev.a], k->n_busy_s[ev.a])
                         ? 0 : nic_send(k, ev.a, t, ev.seq);
                break;
            case OP_GEN:
                rc = do_gen(k, ev.a);
                break;
            default: { /* OP_CALL: the record is released before the call */
                PyObject *fn, *fargs;
                call_take(k, ev.a, &fn, &fargs);
                rc = do_call(k, fn, fargs);
                Py_DECREF(fn);
                Py_DECREF(fargs);
                break;
            }
            }
            if (smp) {
                k->smp_n += 1;
                k->smp_pop_ns += t1 - t0;
                k->smp_op_n[ev.op] += 1;
                k->smp_op_ns[ev.op] += mono_ns() - t1;
            }
            if (rc < 0) {
                failed = 1;
                break;
            }
        }
        k->run_ns += mono_ns() - t_run0;
        k->runs += 1;
        k->running = 0;
    }

    /* Flush the latency block and end residency even when aborting, so
     * the StatsCollector and the routing RNGs stay coherent. */
    PyObject *exc_type = NULL, *exc_val = NULL, *exc_tb = NULL;
    if (failed)
        PyErr_Fetch(&exc_type, &exc_val, &exc_tb);
    if (stats_flush(k) < 0)
        failed = 1;
    if (export_resident(k) < 0)
        failed = 1;
    unbind_refs(k);
    if (exc_type != NULL) {
        PyErr_Restore(exc_type, exc_val, exc_tb);
    } else if (failed && !PyErr_Occurred()) {
        PyErr_SetString(PyExc_RuntimeError, "kernel: run teardown failed");
    }
    if (failed)
        return NULL;
    return PyLong_FromLongLong(executed);
}


/* Empty the event set and release every call-table record.  The table
 * is detached before its references drop, so a destructor that
 * schedules a new CALL starts a fresh one. */
static void
kernel_drop_events(Kernel *k)
{
    k->heap_n = 0;
    for (int i = 0; i < NLANES; i++)
        k->lanes[i].head = k->lanes[i].len = 0;
    CallRec *calls = k->calls;
    int32_t n = k->calls_n;
    k->calls = NULL;
    k->calls_n = k->calls_cap = k->call_free = 0;
    for (int32_t i = 0; i < n; i++) {
        Py_XDECREF(calls[i].fn);
        Py_XDECREF(calls[i].args);
    }
    PyMem_Free(calls);
}

static PyObject *
Kernel_pending(Kernel *k, PyObject *Py_UNUSED(ignored))
{
    return PyLong_FromSsize_t(pending_count(k));
}

static PyObject *
Kernel_peek_time(Kernel *k, PyObject *Py_UNUSED(ignored))
{
    const Event *head;
    if (next_queue(k, &head) < 0)
        Py_RETURN_NONE;
    return PyFloat_FromDouble(head->t);
}

static PyObject *
event_record(Kernel *k, const Event *ev)
{
    if (ev->op == OP_CALL) {
        CallRec *r = &k->calls[ev->a];
        return Py_BuildValue("(dLiOOl)", ev->t, ev->seq, ev->op, r->fn,
                             r->args, (long)0);
    }
    return Py_BuildValue("(dLilll)", ev->t, ev->seq, ev->op, (long)ev->a,
                         (long)ev->b, (long)ev->c);
}

/* All queued event records (heap, then each lane head first) as
 * (t, seq, op, a, b, c) tuples; CALL records carry (fn, args) as
 * (a, b). */
static PyObject *
Kernel_events(Kernel *k, PyObject *Py_UNUSED(ignored))
{
    PyObject *out = PyList_New(pending_count(k));
    if (out == NULL)
        return NULL;
    Py_ssize_t n = 0;
    for (int q = 0; q <= NLANES; q++) {
        Py_ssize_t len = q == LANE_HEAP ? k->heap_n : k->lanes[q].len;
        for (Py_ssize_t i = 0; i < len; i++) {
            const Event *ev = q == LANE_HEAP ? &k->heap[i]
                                             : ering_at(&k->lanes[q], (int32_t)i);
            PyObject *rec = event_record(k, ev);
            if (rec == NULL) {
                Py_DECREF(out);
                return NULL;
            }
            PyList_SET_ITEM(out, n++, rec);
        }
    }
    return out;
}

static PyObject *
Kernel_stats(Kernel *k, PyObject *Py_UNUSED(ignored))
{
    static const char *op_names[OP_COUNT] = {
        "RECV", "ENTER", "PWAKE", "DELIVER", "NWAKE", "GEN", "CALL"};
    static const char *esc_names[ESC_N] = {
        "make_packet", "deliver", "call", "stats_flush", "route_fill",
        "msg_done"};
    static const char *fast_names[FAST_N] = {"make_packet", "deliver"};
    static const char *lane_names[NLANES] = {
        "SER", "LINK", "SER+LINK", "SWITCH"};
    PyObject *ops = PyDict_New();
    PyObject *escs = PyDict_New();
    PyObject *fasts = PyDict_New();
    PyObject *lanes = PyDict_New();
    PyObject *smp_ops = PyDict_New();
    if (ops == NULL || escs == NULL || fasts == NULL || lanes == NULL ||
        smp_ops == NULL)
        goto fail;
    unsigned long long total = 0;
    for (int i = 0; i < OP_COUNT; i++) {
        total += k->op_counts[i];
        PyObject *v = PyLong_FromUnsignedLongLong(k->op_counts[i]);
        if (v == NULL || PyDict_SetItemString(ops, op_names[i], v) < 0) {
            Py_XDECREF(v);
            goto fail;
        }
        Py_DECREF(v);
        PyObject *e = Py_BuildValue("{s:K,s:d}", "count", k->smp_op_n[i],
                                    "ns", k->smp_op_ns[i]);
        if (e == NULL || PyDict_SetItemString(smp_ops, op_names[i], e) < 0) {
            Py_XDECREF(e);
            goto fail;
        }
        Py_DECREF(e);
    }
    unsigned long long lane_total = 0;
    for (int i = 0; i < NLANES; i++) {
        lane_total += k->lane_push[i];
        PyObject *v = PyLong_FromUnsignedLongLong(k->lane_push[i]);
        if (v == NULL || PyDict_SetItemString(lanes, lane_names[i], v) < 0) {
            Py_XDECREF(v);
            goto fail;
        }
        Py_DECREF(v);
    }
    double esc_total_ns = 0.0;
    for (int i = 0; i < ESC_N; i++) {
        esc_total_ns += k->esc_ns[i];
        PyObject *e = Py_BuildValue("{s:K,s:d}", "count", k->esc_counts[i],
                                    "ns", k->esc_ns[i]);
        if (e == NULL || PyDict_SetItemString(escs, esc_names[i], e) < 0) {
            Py_XDECREF(e);
            goto fail;
        }
        Py_DECREF(e);
    }
    for (int i = 0; i < FAST_N; i++) {
        PyObject *e = Py_BuildValue("{s:K}", "count", k->fast_counts[i]);
        if (e == NULL || PyDict_SetItemString(fasts, fast_names[i], e) < 0) {
            Py_XDECREF(e);
            goto fail;
        }
        Py_DECREF(e);
    }
    return Py_BuildValue(
        "{s:K,s:N,s:N,s:N,s:K,s:d,s:d,s:K,"
        "s:{s:K,s:K,s:n,s:N},s:{s:i,s:K,s:d,s:N}}",
        "events", total, "op_counts", ops, "escapes", escs,
        "fast_path", fasts, "detours", k->detours, "run_ns", k->run_ns,
        "escape_ns", esc_total_ns, "runs", k->runs,
        "queue", "lane_pushes", lane_total, "heap_pushes", k->heap_push,
        "heap_hwm", k->heap_hwm, "lanes", lanes,
        "sampled", "every", SAMPLE_EVERY, "count", k->smp_n,
        "pop_ns", k->smp_pop_ns, "ops", smp_ops);
fail:
    Py_XDECREF(ops);
    Py_XDECREF(escs);
    Py_XDECREF(fasts);
    Py_XDECREF(lanes);
    Py_XDECREF(smp_ops);
    return NULL;
}

/* Memory accounting: packet slots (their size, how many the pages
 * hold, live and peak routes spilled out of line), credit-FIFO
 * high-water marks, the queued NIC messages, the traffic
 * generator's MT states and chunks, and the messages the countdown
 * watches. */
static PyObject *
Kernel_memory(Kernel *k, PyObject *Py_UNUSED(ignored))
{
    long long backlog = 0;
    for (long n = 0; k->built && n < k->NN; n++)
        backlog += k->n_q[n].len;
    return Py_BuildValue(
        "{s:i,s:i,s:i,s:n,s:l,s:l,s:l,s:i,s:l,s:i,s:l,s:L,"
        "s:l,s:n,s:i,s:i,s:K,s:n}",
        "slots_live", (int)k->live, "slots_hwm", (int)k->hwm,
        "slots_allocated", (int)k->nslots,
        "slot_bytes", (Py_ssize_t)sizeof(Slot),
        "slot_capacity", (long)k->npages * SLOT_PAGE,
        "spilled_routes", k->spill_live, "spilled_routes_hwm", k->spill_hwm,
        "credit_fifo_hwm", (int)k->arr_hwm, "vc_capacity", k->VC_CAP,
        "nic_credit_fifo_hwm", (int)k->narr_hwm, "nic_capacity", k->NIC_CAP,
        "nic_backlog", backlog,
        "gen_states", k->g_states, "gen_state_bytes",
        (Py_ssize_t)(k->g_states * (long)sizeof(GenState)),
        "gen_chunk_max", (int)k->g_chunk_max, "gen_chunk_cap", GEN_CHUNK,
        "gen_refills", k->g_refills, "msg_watched", k->m_n);
}

static int
node_arg(Kernel *k, PyObject *o, long *node)
{
    if (check_built(k) < 0)
        return -1;
    *node = PyLong_AsLong(o);
    if (*node == -1 && PyErr_Occurred())
        return -1;
    if (*node < 0 || *node >= k->NN) {
        PyErr_Format(PyExc_IndexError, "kernel: node %ld out of range", *node);
        return -1;
    }
    return 0;
}

/* A message id argument as *mid*: -1 for None, else an integer (by the
 * index protocol, as operator.index takes it) in [0, 2**63). */
static int
msg_id_arg(PyObject *o, long long *mid)
{
    *mid = -1;
    if (o == Py_None)
        return 0;
    PyObject *i = PyNumber_Index(o);
    if (i == NULL)
        return -1;
    int overflow;
    *mid = PyLong_AsLongLongAndOverflow(i, &overflow);
    int rc = overflow || *mid < 0 ? -1 : 0;
    if (rc < 0)
        PyErr_Format(PyExc_ValueError, "message id %R must be in [0, 2**63)",
                     i);
    Py_DECREF(i);
    return rc;
}

/* nic_submit(node, dst, size, msg_id, interleave): NIC.submit at the
 * current time, its arguments converted and checked as NIC.submit does,
 * whatever their magnitude (repro.sim.nic's bad_size and bad_msg_id
 * give the errors their text), the message id kept as a C integer.  A
 * send made outside a run is accounted in the collector's arrays like
 * any other. */
static PyObject *
Kernel_nic_submit(Kernel *k, PyObject *const *args, Py_ssize_t nargs)
{
    if (nargs != 5) {
        PyErr_SetString(PyExc_TypeError, "nic_submit takes 5 arguments");
        return NULL;
    }
    long node;
    if (node_arg(k, args[0], &node) < 0)
        return NULL;
    PyObject *dst_o = PyNumber_Index(args[1]);
    PyObject *size_o = dst_o != NULL ? PyNumber_Index(args[2]) : NULL;
    PyObject *rv = NULL;
    if (size_o != NULL) {
        int dst_ovf, size_ovf;
        long long dst = PyLong_AsLongLongAndOverflow(dst_o, &dst_ovf);
        long long size = PyLong_AsLongLongAndOverflow(size_o, &size_ovf);
        long long mid;
        if (dst_ovf || dst < 0 || dst >= k->NN) { /* indexes node state */
            PyErr_Format(PyExc_IndexError,
                         "destination node %S out of range [0, %ld)", dst_o,
                         k->NN);
        } else if (size_ovf || size < 1) {
            PyErr_Format(PyExc_ValueError, "size %R must be in [1, 2**63)",
                         size_o);
        } else if (msg_id_arg(args[3], &mid) == 0) {
            int interleave = PyObject_IsTrue(args[4]);
            if (interleave >= 0 &&
                nic_enqueue(k, node, (int32_t)dst, size, mid, interleave) == 0)
                rv = Py_NewRef(Py_None);
        }
    }
    Py_XDECREF(size_o);
    Py_XDECREF(dst_o);
    return rv;
}

/* watch(left, release, times, groups, kinds, on_complete): arm the
 * message countdown on its tables, in MV_* order: the four per-message
 * ones of one length, the kind table in whole rows of nkind. */
static PyObject *
Kernel_watch(Kernel *k, PyObject *args)
{
    static const char *fmt[MV_N] = {"i", "B", "d", "i", "q"};
    static const Py_ssize_t size[MV_N] = {4, 1, 8, 4, 8};
    static const char *what[MV_N] = {
        "the countdown's packets left", "the countdown's release flags",
        "the countdown's completion times", "the countdown's group ids",
        "the countdown's kind table"};
    static const char *type[MV_N] = {"an array('i')", "bytes",
                                     "an array('d')", "an array('i')",
                                     "an array('q')"};
    PyObject *tab[MV_N], *fn;
    if (check_built(k) < 0 ||
        !PyArg_ParseTuple(args, "OOOOOO", &tab[0], &tab[1], &tab[2],
                          &tab[3], &tab[4], &fn))
        return NULL;
    if (!PyCallable_Check(fn)) {
        PyErr_SetString(PyExc_TypeError,
                        "kernel: the completion callback is not callable");
        return NULL;
    }
    Py_buffer v[MV_N];
    int i = 0, ok = 0;
    while (i < MV_N &&
           bind_buffer(tab[i], &v[i], i == MV_REL || i == MV_GROUP
                       ? PyBUF_CONTIG_RO : PyBUF_CONTIG, fmt[i], size[i], -1,
                       what[i], type[i]) == 0)
        i++;
    if (i == MV_N) {
        Py_ssize_t n = v[MV_LEFT].shape[0];
        if (v[MV_REL].shape[0] != n || v[MV_TIME].shape[0] != n ||
            v[MV_GROUP].shape[0] != n)
            PyErr_SetString(PyExc_ValueError,
                            "kernel: the countdown tables differ in length");
        else if (v[MV_KIND].shape[0] % k->nkind != 0)
            PyErr_Format(PyExc_ValueError, "kernel: the countdown's kind "
                         "table is not rows of %zd", k->nkind);
        else
            ok = 1;
    }
    if (!ok) {
        while (i-- > 0)
            PyBuffer_Release(&v[i]);
        return NULL;
    }
    watch_drop(k);
    memcpy(k->m_view, v, sizeof(v));
    k->m_left = (int32_t *)v[MV_LEFT].buf;
    k->m_rel = (const unsigned char *)v[MV_REL].buf;
    k->m_time = (double *)v[MV_TIME].buf;
    k->m_group = (const int32_t *)v[MV_GROUP].buf;
    k->m_tally = (long long *)v[MV_KIND].buf;
    k->m_n = v[MV_LEFT].shape[0];
    k->m_ngroups = v[MV_KIND].shape[0] / k->nkind;
    k->m_done = Py_NewRef(fn);
    Py_RETURN_NONE;
}

/* nic_info(node) -> (queued_packets, credit_stalls, credits). */
static PyObject *
Kernel_nic_info(Kernel *k, PyObject *nodeo)
{
    long node;
    if (node_arg(k, nodeo, &node) < 0)
        return NULL;
    return Py_BuildValue("(LLi)", k->n_qp[node], k->n_stalls[node],
                         (int)k->n_cred[node]);
}

/* queue_len(router, neighbor): UGAL-L's congestion signal. */
static PyObject *
Kernel_queue_len(Kernel *k, PyObject *const *args, Py_ssize_t nargs)
{
    if (nargs != 2) {
        PyErr_SetString(PyExc_TypeError, "queue_len takes 2 arguments");
        return NULL;
    }
    long u = PyLong_AsLong(args[0]);
    long v = PyLong_AsLong(args[1]);
    if ((u == -1 || v == -1) && PyErr_Occurred())
        return NULL;
    long q = fp_qlen(k, u, v);
    return q < 0 ? NULL : PyLong_FromLong(q);
}

/* Load a pattern-table entry into *g* (a fresh ``tab``; the caller owns
 * it on success) for a network of *nn* nodes.  The entries are
 * validated here, so gen_pick never draws a bad destination. */
static int
gen_spec_load(GenSpec *g, long nn, int pat, PyObject *table, long n,
              double hot, double mean_ia, double horizon, int poisson)
{
    PyObject *ft = PySequence_Fast(table, "table must be a sequence");
    if (ft == NULL)
        return -1;
    Py_ssize_t ntab = PySequence_Fast_GET_SIZE(ft);
    int32_t *tab = NULL;
    int ok = (pat == PAT_PERM && ntab == nn) ||
             (pat == PAT_UNIFORM && n >= 2 && n <= nn) ||
             (pat == PAT_HOTSPOT && n >= 2 && n <= nn && ntab >= 1);
    if (!ok || !(mean_ia > 0.0)) {
        PyErr_SetString(PyExc_ValueError, "kernel: bad pattern-table entry");
        goto fail;
    }
    tab = (int32_t *)PyMem_Malloc((size_t)(ntab ? ntab : 1) * sizeof(int32_t));
    if (tab == NULL) {
        PyErr_NoMemory();
        goto fail;
    }
    for (Py_ssize_t i = 0; i < ntab; i++) {
        long d = PyLong_AsLong(PySequence_Fast_GET_ITEM(ft, i));
        if (d == -1 && PyErr_Occurred())
            goto fail;
        if (d < (pat == PAT_PERM ? -1 : 0) || d >= nn ||
            (pat == PAT_PERM && d == i)) {
            PyErr_Format(PyExc_ValueError, "kernel: pattern-table entry %ld",
                         d);
            goto fail;
        }
        tab[i] = (int32_t)d;
    }
    Py_DECREF(ft);
    *g = (GenSpec){pat, poisson, tab, (long)ntab, n, hot, mean_ia,
                   1.0 / mean_ia, horizon};
    return 0;
fail:
    PyMem_Free(tab);
    Py_DECREF(ft);
    return -1;
}

/* Start *node*'s stream from *st*, a generator seeded for it (which
 * this takes over): draw the first chunk, keep the state only if the
 * stream goes on past it, and queue the node's first GEN. */
static int
gen_start(Kernel *k, long node, GenState *st)
{
    gen_drop(k, node);
    st->t = mt_uniform(&st->mt, 0.0, k->gen.mean_ia);
    double bt[GEN_CHUNK];
    int32_t bd[GEN_CHUNK];
    int done;
    int32_t m = gen_fill(&k->gen, st, node, bt, bd, GEN_CHUNK, &done);
    k->g_t[node] = (double *)PyMem_Malloc((size_t)m * sizeof(double));
    k->g_d[node] = (int32_t *)PyMem_Malloc((size_t)m * sizeof(int32_t));
    if (k->g_t[node] == NULL || k->g_d[node] == NULL) {
        PyMem_Free(st);
        PyErr_NoMemory();
        return -1;
    }
    memcpy(k->g_t[node], bt, (size_t)m * sizeof(double));
    memcpy(k->g_d[node], bd, (size_t)m * sizeof(int32_t));
    k->g_n[node] = m;
    if (m > k->g_chunk_max)
        k->g_chunk_max = m;
    if (done) {
        PyMem_Free(st);
    } else {
        k->g_st[node] = st;
        k->g_states += 1;
    }
    k->seq += 1;
    return kpush(k, LANE_HEAP, bt[0], k->seq, OP_GEN, node, 0, 0);
}

/* gen_streams(seeds, pat, table, n, hot, mean_ia, horizon, poisson):
 * every node's stream from random.Random(seeds[node]) and the pattern
 * table entry (pat, table, n, hot), drawn in C; queues each node's
 * first GEN event, in node order.  The nodes are seeded MT_BATCH at a
 * time, so at most one batch of generators is held beyond the streams
 * that still need theirs. */
static PyObject *
Kernel_gen_streams(Kernel *k, PyObject *args)
{
    PyObject *seeds, *table;
    int pat, poisson;
    long n;
    double hot, mean_ia, horizon;
    if (!PyArg_ParseTuple(args, "OiOldddp", &seeds, &pat, &table, &n, &hot,
                          &mean_ia, &horizon, &poisson))
        return NULL;
    if (check_built(k) < 0)
        return NULL;
    PyObject *fs = PySequence_Fast(seeds, "seeds must be a sequence");
    if (fs == NULL)
        return NULL;
    uint64_t *sv = NULL;
    GenSpec g;
    if (PySequence_Fast_GET_SIZE(fs) != k->NN) {
        PyErr_SetString(PyExc_ValueError, "kernel: one seed per node");
        goto fail;
    }
    sv = (uint64_t *)PyMem_Malloc((size_t)k->NN * sizeof(uint64_t));
    if (sv == NULL) {
        PyErr_NoMemory();
        goto fail;
    }
    for (long i = 0; i < k->NN; i++) {
        sv[i] = PyLong_AsUnsignedLongLong(PySequence_Fast_GET_ITEM(fs, i));
        if (sv[i] == (uint64_t)-1 && PyErr_Occurred())
            goto fail;
    }
    if (gen_spec_load(&g, k->NN, pat, table, n, hot, mean_ia, horizon,
                      poisson) < 0)
        goto fail;
    PyMem_Free(k->gen.tab);
    k->gen = g;
    for (long b = 0; b < k->NN; b += MT_BATCH) {
        long m = k->NN - b < MT_BATCH ? k->NN - b : MT_BATCH, got = 0;
        GenState *st[MT_BATCH];
        MT *mt[MT_BATCH];
        while (got < m && (st[got] = (GenState *)PyMem_Malloc(
                               sizeof(GenState))) != NULL) {
            mt[got] = &st[got]->mt;
            got += 1;
        }
        if (got < m) {
            while (got > 0)
                PyMem_Free(st[--got]);
            PyErr_NoMemory();
            goto fail;
        }
        mt_seed(mt, sv + b, m);
        for (long l = 0; l < m; l++)
            if (gen_start(k, b + l, st[l]) < 0) {
                while (++l < m) /* gen_start took st[l] over */
                    PyMem_Free(st[l]);
                goto fail;
            }
    }
    PyMem_Free(sv);
    Py_DECREF(fs);
    Py_RETURN_NONE;
fail:
    PyMem_Free(sv);
    Py_DECREF(fs);
    return NULL;
}

static int
port_arg(Kernel *k, PyObject *o, long *gid)
{
    if (check_built(k) < 0)
        return -1;
    *gid = PyLong_AsLong(o);
    if (*gid == -1 && PyErr_Occurred())
        return -1;
    if (*gid < 0 || *gid >= k->NP) {
        PyErr_Format(PyExc_IndexError, "kernel: port %ld out of range", *gid);
        return -1;
    }
    return 0;
}

/* set_dead(gid, flag): mark a failed (or recovered) output port. */
static PyObject *
Kernel_set_dead(Kernel *k, PyObject *args)
{
    PyObject *gido;
    int flag;
    long gid;
    if (!PyArg_ParseTuple(args, "Op", &gido, &flag))
        return NULL;
    if (port_arg(k, gido, &gid) < 0)
        return NULL;
    if (k->p_dead[gid] != (flag != 0)) {
        k->ndead += flag ? 1 : -1;
        bfs_drop(k);
    }
    k->p_dead[gid] = (uint8_t)(flag != 0);
    Py_RETURN_NONE;
}

static int
cmp_long(const void *a, const void *b)
{
    long x = *(const long *)a, y = *(const long *)b;
    return (x > y) - (x < y);
}

/* drain_port(gid): fail-time drain of a dead port's output queues at
 * the current event key, mirroring the object backend's drain, inside a
 * run with a fault manager bound.  Every queued packet is diverted (see
 * "fault diverts") and a rerouted one enters the sibling queue its new
 * route names (waking the port at its link-free key if it is
 * transmitting); then the parked inputs are re-admitted VC by VC, and
 * each port that received packets gets one PWAKE at the current time,
 * in port order, each consuming a sequence number. */
static PyObject *
Kernel_drain_port(Kernel *k, PyObject *gido)
{
    long gid;
    if (port_arg(k, gido, &gid) < 0)
        return NULL;
    if (k->fm == NULL) {
        PyErr_SetString(PyExc_RuntimeError,
                        "kernel: drain_port needs a run with a fault manager");
        return NULL;
    }
    double t = k->now;
    long long s = k->cs;
    long V = k->V;
    long *moved = NULL;
    Py_ssize_t nmoved = 0, capm = 0;
    for (long ovc = 0; ovc < V; ovc++) {
        long pv = gid * V + ovc;
        while (k->pv_oq[pv].len) {
            int32_t si = iring_pop(&k->pv_oq[pv]);
            k->pv_occ[pv] -= 1;
            k->p_oqtot[gid] -= 1;
            k->p_queued[gid] -= 1;
            long npv = 0, ngid = 0;
            int kept = fault_divert(k, si, gid, &npv, &ngid);
            if (kept < 0)
                goto fail;
            if (!kept)
                continue;
            if (iring_push(&k->pv_oq[npv], si) < 0)
                goto fail;
            k->pv_occ[npv] += 1;
            k->p_oqtot[ngid] += 1;
            k->p_queued[ngid] += 1;
            /* A busy receiving port transmits again at its link-free key,
             * which the kernel elides unless a wake is queued there. */
            if (!k->p_wake[ngid] &&
                is_busy(t, s, k->p_busy_t[ngid], k->p_busy_s[ngid])) {
                if (kpush(k, LANE_HEAP, k->p_busy_t[ngid], k->p_busy_s[ngid],
                          OP_PWAKE, ngid, 0, 0) < 0)
                    goto fail;
                k->p_wake[ngid] = 1;
            }
            if (nmoved == capm) {
                capm = capm ? capm * 2 : 16;
                long *nm = (long *)PyMem_Realloc(moved, (size_t)capm * sizeof(long));
                if (nm == NULL) {
                    PyErr_NoMemory();
                    goto fail;
                }
                moved = nm;
            }
            moved[nmoved++] = ngid;
        }
    }
    for (long ovc = 0; ovc < V; ovc++)
        if (admit_pending(k, gid, ovc, t, s) < 0)
            goto fail;
    if (nmoved)
        qsort(moved, (size_t)nmoved, sizeof(long), cmp_long);
    for (Py_ssize_t i = 0; i < nmoved; i++) {
        if (i > 0 && moved[i] == moved[i - 1])
            continue;
        k->seq += 1;
        if (kpush(k, LANE_HEAP, t, k->seq, OP_PWAKE, moved[i], 0, 0) < 0)
            goto fail;
    }
    PyMem_Free(moved);
    Py_RETURN_NONE;
fail:
    PyMem_Free(moved);
    return NULL;
}

/* reset_sent(): zero the transmission counters (warm-up boundary). */
static PyObject *
Kernel_reset_sent(Kernel *k, PyObject *Py_UNUSED(ignored))
{
    if (check_built(k) < 0)
        return NULL;
    memset(k->p_sent, 0, (size_t)k->NP * sizeof(long long));
    Py_RETURN_NONE;
}

/* -- state snapshots ---------------------------------------------------------- */

/* view(name): a bytes copy of one per-port, per-VC or per-NIC counter
 * array (int64 "p_sent", int32 otherwise). */
static PyObject *
Kernel_view(Kernel *k, PyObject *nameo)
{
    if (check_built(k) < 0)
        return NULL;
    const char *name = PyUnicode_AsUTF8(nameo);
    if (name == NULL)
        return NULL;
    long NPV = k->NP * k->V;
    struct {
        const char *name;
        const void *ptr;
        long n;
        size_t size;
    } tab[] = {
        {"p_sent", k->p_sent, k->NP, sizeof(long long)},
        {"p_queued", k->p_queued, k->NP, sizeof(int32_t)},
        {"pv_occ", k->pv_occ, NPV, sizeof(int32_t)},
        {"pv_cred", k->pv_cred, NPV, sizeof(int32_t)},
        {"n_cred", k->n_cred, k->NN, sizeof(int32_t)},
    };
    for (size_t i = 0; i < sizeof(tab) / sizeof(tab[0]); i++)
        if (strcmp(tab[i].name, name) == 0)
            return PyBytes_FromStringAndSize(
                (const char *)tab[i].ptr, (Py_ssize_t)(tab[i].n * tab[i].size));
    PyErr_Format(PyExc_KeyError, "kernel: no state array %R", nameo);
    return NULL;
}

/* lengths(name): int32 bytes with the length of every queue of one
 * kind -- "pv_oq", "iv_q", "p_pend", or the pending credit arrivals
 * (matured + on the wire) "pv_arr" / "n_arr". */
static PyObject *
Kernel_lengths(Kernel *k, PyObject *nameo)
{
    if (check_built(k) < 0)
        return NULL;
    const char *name = PyUnicode_AsUTF8(nameo);
    if (name == NULL)
        return NULL;
    static const char *names[] = {"pv_oq", "pv_arr", "p_pend", "iv_q",
                                  "n_arr"};
    int which = -1;
    for (int j = 0; j < 5; j++)
        if (strcmp(name, names[j]) == 0)
            which = j;
    long sizes[] = {k->NP * k->V, k->NP * k->V, k->NP, k->NI * k->V,
                    k->NN};
    if (which < 0) {
        PyErr_Format(PyExc_KeyError, "kernel: no queue set %R", nameo);
        return NULL;
    }
    long n = sizes[which];
    PyObject *out = PyBytes_FromStringAndSize(NULL, (Py_ssize_t)n * 4);
    if (out == NULL)
        return NULL;
    int32_t *o = (int32_t *)PyBytes_AS_STRING(out);
    for (long i = 0; i < n; i++) {
        switch (which) {
        case 0: o[i] = k->pv_oq[i].len; break;
        case 1: o[i] = k->pv_mat[i] + k->pv_arr[i].len; break;
        case 2: o[i] = k->p_pend[i].len; break;
        case 3: o[i] = k->iv_q[i].len; break;
        default: o[i] = k->n_mat[i] + k->n_arr[i].len; break;
        }
    }
    return out;
}

/* queue(name, i): the entries of one queue, head first -- slot ids for
 * "iv_q", ``in_gid * V + vc`` for "p_pend". */
static PyObject *
Kernel_queue(Kernel *k, PyObject *args)
{
    const char *name;
    long i;
    if (!PyArg_ParseTuple(args, "sl", &name, &i))
        return NULL;
    if (check_built(k) < 0)
        return NULL;
    IRing *r = NULL;
    if (strcmp(name, "iv_q") == 0 && i >= 0 && i < k->NI * k->V)
        r = &k->iv_q[i];
    else if (strcmp(name, "p_pend") == 0 && i >= 0 && i < k->NP)
        r = &k->p_pend[i];
    if (r == NULL) {
        PyErr_Format(PyExc_KeyError, "kernel: no queue %s[%ld]", name, i);
        return NULL;
    }
    PyObject *out = PyList_New(r->len);
    if (out == NULL)
        return NULL;
    for (int32_t j = 0; j < r->len; j++) {
        PyObject *v = PyLong_FromLong(*iring_at(r, j));
        if (v == NULL) {
            Py_DECREF(out);
            return NULL;
        }
        PyList_SET_ITEM(out, j, v);
    }
    return out;
}

static int
slot_arg(Kernel *k, PyObject *o, int32_t *si)
{
    long v = PyLong_AsLong(o);
    if (v == -1 && PyErr_Occurred())
        return -1;
    if (v < 0 || v >= k->nslots || SLOT(k, v)->hop < 0) {
        PyErr_Format(PyExc_IndexError, "kernel: slot %ld holds no packet", v);
        return -1;
    }
    *si = (int32_t)v;
    return 0;
}

/* next_port(slot) -> (hop, output port index requested at that hop). */
static PyObject *
Kernel_next_port(Kernel *k, PyObject *slo)
{
    int32_t si;
    if (slot_arg(k, slo, &si) < 0)
        return NULL;
    Slot *p = SLOT(k, si);
    return Py_BuildValue("(ii)", (int)p->hop, (int)S_PORT(p, p->hop));
}


/* The route under construction as (routers, hop ports, vcs, kind). */
static PyObject *
route_tuple(Kernel *k)
{
    int32_t n = k->rt_n;
    PyObject *kind = PySequence_GetItem(k->kind_names, k->rt_kind);
    PyObject *r = kind && rt_ports(k) == 0 ? int_tuple(k->rt_r, n) : NULL;
    PyObject *p = r ? int_tuple(k->rt_p, n - 1) : NULL;
    PyObject *v = p ? int_tuple(k->rt_v, n - 1) : NULL;
    if (v == NULL) {
        Py_XDECREF(kind);
        Py_XDECREF(r);
        Py_XDECREF(p);
        return NULL;
    }
    return Py_BuildValue("(NNNN)", r, p, v, kind);
}

static int
router_arg(Kernel *k, long r)
{
    if (r < 0 || r >= k->NR) {
        PyErr_Format(PyExc_IndexError, "kernel: router %ld out of range", r);
        return -1;
    }
    return 0;
}

/* route_candidates(a, b, legs=False): pair (a, b)'s candidates as the
 * fast path selects among them, in order, under the current dead ports:
 * leg router tuples, or minimal (routers, ports, vcs, kind) tuples.
 * None when the pair escapes to RouteCache. */
static PyObject *
Kernel_route_candidates(Kernel *k, PyObject *args)
{
    long a, b;
    int legs = 0;
    if (!PyArg_ParseTuple(args, "ll|p", &a, &b, &legs))
        return NULL;
    if (check_built(k) < 0 || router_arg(k, a) < 0 || router_arg(k, b) < 0)
        return NULL;
    const int32_t *mid;
    int32_t n = legs ? rt_candidates(k, a, b, &mid)
                     : rt_min_candidates(k, a, b, &mid);
    if (n < 0)
        return NULL;
    if (n == 0)
        Py_RETURN_NONE;
    PyObject *out = PyTuple_New(n);
    if (out == NULL)
        return NULL;
    for (int32_t i = 0; i < n; i++) {
        Pick p;
        pick_init(&p, a, b);
        p.mid = mid[i];
        PyObject *c;
        if (legs)
            c = int_tuple(k->rt_r, rt_put_path(k, &p, 0));
        else
            c = emit_min(k, &p) < 0 ? NULL : route_tuple(k);
        if (c == NULL) {
            Py_DECREF(out);
            return NULL;
        }
        PyTuple_SET_ITEM(out, i, c);
    }
    return out;
}

/* route_compose(first, second): the Valiant route the fast path builds
 * from two legs, as (routers, ports, vcs, kind); None when C cannot label
 * it (past the HopIndexVC indirect budget, or another VC policy). */
static PyObject *
Kernel_route_compose(Kernel *k, PyObject *args)
{
    Pick f, s;
    pick_init(&f, 0, 0);
    pick_init(&s, 0, 0);
    if (!PyArg_ParseTuple(args, "O!O!", &PyTuple_Type, &f.path,
                          &PyTuple_Type, &s.path))
        return NULL;
    if (check_built(k) < 0)
        return NULL;
    int32_t n1 = rt_put_path(k, &f, 0);
    if (n1 < 1)
        return n1 < 0 ? NULL : PyErr_Format(PyExc_ValueError, "kernel: empty leg");
    int32_t inter = k->rt_r[n1 - 1];
    int32_t n = rt_put_path(k, &s, n1 - 1);
    if (n < 0)
        return NULL;
    if (n < n1 || k->rt_r[n1 - 1] != inter) {
        PyErr_SetString(PyExc_ValueError, "kernel: legs do not meet");
        return NULL;
    }
    k->rt_n = n;
    if (!compose_c(k, n1 - 1))
        Py_RETURN_NONE;
    return route_tuple(k);
}


/* -- construction from the SoAState wiring ------------------------------------- */

static int
st_long(PyObject *st, const char *name, long *out)
{
    PyObject *v = get_attr(st, name);
    if (v == NULL)
        return -1;
    *out = PyLong_AsLong(v);
    Py_DECREF(v);
    return (*out == -1 && PyErr_Occurred()) ? -1 : 0;
}

static int
st_double(PyObject *st, const char *name, double *out)
{
    PyObject *v = get_attr(st, name);
    if (v == NULL)
        return -1;
    *out = PyFloat_AsDouble(v);
    Py_DECREF(v);
    return (*out == -1.0 && PyErr_Occurred()) ? -1 : 0;
}

/* A fresh int32 array copied from ``st.<name>``, a buffer of *n* int32
 * items (SoAState's array('i') wiring). */
static int32_t *
st_ints(PyObject *st, const char *name, long n)
{
    PyObject *v = get_attr(st, name);
    if (v == NULL)
        return NULL;
    Py_buffer view;
    int rc = bind_buffer(v, &view, PyBUF_CONTIG_RO, "i", sizeof(int32_t), n,
                         name, "an int32 array of the wiring's size");
    Py_DECREF(v);
    if (rc < 0)
        return NULL;
    int32_t *out = (int32_t *)PyMem_Malloc((size_t)(n ? n : 1) *
                                           sizeof(int32_t));
    if (out == NULL)
        PyErr_NoMemory();
    else
        memcpy(out, view.buf, (size_t)n * sizeof(int32_t));
    PyBuffer_Release(&view);
    return out;
}

#define CALLOC(ptr, n)                                                    \
    if (((ptr) = PyMem_Calloc((size_t)(n) + 1, sizeof(*(ptr)))) == NULL) { \
        PyErr_NoMemory();                                                 \
        return -1;                                                        \
    }

/* Bind net.stats and net._pid for the kernel's lifetime: the
 * collector's absorb_kernel, which takes the latency blocks, its
 * kind_names and kind_index, and writable views of its per-node eject
 * counts (one int64 per node), its counters (ST_N int64), times (TM_N
 * float64) and per-kind totals (int64, one per kind it can count), and
 * of Network._pid (one int64), all of which the accounting and
 * make_fast write in place.  The views pin their arrays' sizes;
 * set_window writes them without reallocating. */
static int
bind_stats(Kernel *k, PyObject *net)
{
    PyObject *stats = get_attr(net, "stats");
    if (stats == NULL)
        return -1;
    PyObject *cnt = NULL, *st = NULL, *tm = NULL, *kt = NULL, *pid = NULL;
    int w = PyBUF_WRITABLE | PyBUF_C_CONTIGUOUS, rc = -1;
    if ((k->stats_absorb = get_attr(stats, "absorb_kernel")) == NULL ||
        (k->kind_names = get_attr(stats, "kind_names")) == NULL ||
        (k->kind_intern = get_attr(stats, "kind_index")) == NULL ||
        (cnt = get_attr(stats, "eject_count_per_node")) == NULL ||
        (st = get_attr(stats, "counts")) == NULL ||
        (tm = get_attr(stats, "times")) == NULL ||
        (kt = get_attr(stats, "kind_totals")) == NULL ||
        (pid = get_attr(net, "_pid")) == NULL)
        goto done;
    if (bind_buffer(cnt, &k->ejcnt_view, w, "q", sizeof(long long), k->NN,
                    "stats.eject_count_per_node",
                    "an array('q') of one entry per node") < 0 ||
        bind_buffer(st, &k->st_view, w, "q", sizeof(long long), ST_N,
                    "stats.counts", "an array('q') of six") < 0 ||
        bind_buffer(tm, &k->tm_view, w, "d", sizeof(double), TM_N,
                    "stats.times", "an array('d') of four") < 0 ||
        bind_buffer(kt, &k->kind_view, w, "q", sizeof(long long), -1,
                    "stats.kind_totals", "an array('q')") < 0 ||
        bind_buffer(pid, &k->pid_view, w, "q", sizeof(long long), 1,
                    "Network._pid", "an array('q') of one") < 0)
        goto done;
    k->nkind = k->kind_view.shape[0];
    if (k->nkind > UINT8_MAX + 1) { /* a slot's kind is a uint8 */
        PyErr_SetString(PyExc_ValueError, "kernel: too many route kinds");
        goto done;
    }
    k->ejcnt = (long long *)k->ejcnt_view.buf;
    k->st = (long long *)k->st_view.buf;
    k->tm = (double *)k->tm_view.buf;
    k->kind_tot = (long long *)k->kind_view.buf;
    k->last_pid = (long long *)k->pid_view.buf;
    rc = 0;
done:
    Py_XDECREF(pid);
    Py_XDECREF(kt);
    Py_XDECREF(tm);
    Py_XDECREF(st);
    Py_XDECREF(cnt);
    Py_DECREF(stats);
    return rc;
}

/* Kernel(st, net, packet_cls): build the state from SoAState's wiring.
 * Every router-router port starts with a full VC's worth of credits and
 * every NIC with a full port's worth, as the object ports do. */
static int
Kernel_init(Kernel *k, PyObject *args, PyObject *kwds)
{
    PyObject *st, *net, *packet_cls;
    static char *kwlist[] = {"st", "net", "packet_cls", NULL};
    if (!PyArg_ParseTupleAndKeywords(args, kwds, "OOO", kwlist, &st, &net,
                                     &packet_cls))
        return -1;
    if (k->built) {
        PyErr_SetString(PyExc_RuntimeError, "kernel: already built");
        return -1;
    }
    if (st_long(st, "V", &k->V) < 0 || st_long(st, "NN", &k->NN) < 0 ||
        st_long(st, "NR", &k->NR) < 0 || st_long(st, "NP", &k->NP) < 0 ||
        st_long(st, "NI", &k->NI) < 0 || st_long(st, "OQ_CAP", &k->OQ_CAP) < 0 ||
        st_long(st, "VC_CAP", &k->VC_CAP) < 0 ||
        st_long(st, "NIC_CAP", &k->NIC_CAP) < 0 ||
        st_long(st, "PKT_BYTES", &k->pkt_bytes) < 0 ||
        st_double(st, "SER", &k->SER) < 0 ||
        st_double(st, "LINK", &k->LINK) < 0 ||
        st_double(st, "SWITCH", &k->SWITCH) < 0 ||
        st_double(st, "SL", &k->SL) < 0)
        return -1;
    long V = k->V, NP = k->NP, NI = k->NI, NN = k->NN, NR = k->NR;
    if (V < 1 || NP < 1 || NN < 1 || NR < 1 || NP * V > INT32_MAX ||
        NI * V > INT32_MAX || NR * NR > INT32_MAX) {
        PyErr_SetString(PyExc_ValueError, "kernel: bad dimensions");
        return -1;
    }
    if (k->pkt_bytes < 1) {
        PyErr_SetString(PyExc_ValueError, "kernel: bad packet size");
        return -1;
    }
    if ((k->p_off = st_ints(st, "p_off", NR)) == NULL ||
        (k->p_dest_in = st_ints(st, "p_dest_in", NP)) == NULL ||
        (k->in_pbase = st_ints(st, "in_pbase", NI)) == NULL ||
        (k->in_up_port = st_ints(st, "in_up_port", NI)) == NULL ||
        (k->in_up_node = st_ints(st, "in_up_node", NI)) == NULL ||
        (k->n_in = st_ints(st, "n_in", NN)) == NULL ||
        (k->n_rid = st_ints(st, "n_rid", NN)) == NULL ||
        (k->n_eject = st_ints(st, "n_eject", NN)) == NULL ||
        (k->row_port = st_ints(st, "row_port", NR * NR)) == NULL)
        return -1;
    int32_t *has = st_ints(st, "p_has_cred", NP);
    if (has == NULL)
        return -1;
    CALLOC(k->p_has_cred, NP)
    CALLOC(k->p_rid, NP)
    long radix = 0;
    for (long r = 0; r < NR; r++) {
        long end = r + 1 < NR ? k->p_off[r + 1] : NP;
        if (end - k->p_off[r] > radix)
            radix = end - k->p_off[r];
        for (long g = k->p_off[r]; g < end && g < NP; g++)
            k->p_rid[g] = (int32_t)r;
    }
    /* A slot stores port indices as uint16 and VCs as uint8. */
    if (radix > UINT16_MAX + 1L || V > UINT8_MAX + 1L) {
        PyErr_Format(PyExc_ValueError,
                     "kernel: radix %ld or %ld VCs past a slot's route "
                     "entries", radix, V);
        return -1;
    }
    CALLOC(k->pv_cred, NP * V)
    for (long g = 0; g < NP; g++) {
        k->p_has_cred[g] = has[g] ? 1 : 0;
        if (has[g])
            for (long vc = 0; vc < V; vc++)
                k->pv_cred[g * V + vc] = (int32_t)k->VC_CAP;
    }
    PyMem_Free(has);

    CALLOC(k->p_busy_t, NP)
    CALLOC(k->p_busy_s, NP)
    for (long g = 0; g < NP; g++)
        k->p_busy_s[g] = -1; /* (t, s) < (0.0, -1) is false for any event */
    CALLOC(k->p_sent, NP)
    CALLOC(k->p_queued, NP)
    CALLOC(k->p_rr, NP)
    CALLOC(k->p_oqtot, NP)
    CALLOC(k->p_wake, NP)
    CALLOC(k->p_dead, NP)
    CALLOC(k->p_pend, NP)
    CALLOC(k->pv_occ, NP * V)
    CALLOC(k->pv_mat, NP * V)
    CALLOC(k->pv_oq, NP * V)
    CALLOC(k->pv_arr, NP * V)
    CALLOC(k->iv_q, NI * V)
    CALLOC(k->n_busy_t, NN)
    CALLOC(k->n_busy_s, NN)
    for (long n = 0; n < NN; n++)
        k->n_busy_s[n] = -1;
    CALLOC(k->n_stalls, NN)
    CALLOC(k->n_cred, NN)
    for (long n = 0; n < NN; n++)
        k->n_cred[n] = (int32_t)k->NIC_CAP;
    CALLOC(k->n_mat, NN)
    CALLOC(k->n_qp, NN)
    CALLOC(k->n_wake, NN)
    CALLOC(k->n_q, NN)
    CALLOC(k->n_arr, NN)
    CALLOC(k->g_t, NN)
    CALLOC(k->g_d, NN)
    CALLOC(k->g_i, NN)
    CALLOC(k->g_n, NN)
    CALLOC(k->g_st, NN)

    /* Route table: empty rows, buffers and the routing's VC labelling. */
    long scheme;
    if (st_long(st, "vc_scheme", &scheme) < 0 ||
        st_long(st, "vc_min", &k->vc_min) < 0 ||
        st_long(st, "vc_ind", &k->vc_ind) < 0)
        return -1;
    k->vc_mode = scheme == VC_HOP || scheme == VC_PHASE ? (int)scheme
                                                        : VC_OTHER;
    CALLOC(k->rt_off, NR)
    CALLOC(k->rt_mid, NR)
    CALLOC(k->rt_live, NR)
    CALLOC(k->bfs, NR)
    CALLOC(k->bfs_q, NR)
    k->rt_cap = (int32_t)(2 * NR + 2); /* two legs of at most NR routers */
    CALLOC(k->rt_r, k->rt_cap)
    CALLOC(k->rt_p, k->rt_cap)
    CALLOC(k->rt_v, k->rt_cap)
    if (no_route_cls == NULL) {
        PyObject *mod = PyImport_ImportModule("repro.routing.cache");
        no_route_cls = mod ? get_attr(mod, "NoRouteError") : NULL;
        Py_XDECREF(mod);
        if (no_route_cls == NULL)
            return -1;
    }
    if (bind_stats(k, net) < 0 ||
        (k->ki_min = kind_index(k, str_minimal)) < 0 ||
        (k->ki_ind = kind_index(k, str_indirect)) < 0)
        return -1;
    k->free_head = -1;
    k->route_mode = -1;
    k->net = Py_NewRef(net);
    k->packet_cls = Py_NewRef(packet_cls);
    k->built = 1;
    return 0;
}

/* -- type plumbing -------------------------------------------------------------- */

static int
Kernel_traverse(Kernel *k, visitproc visit, void *arg)
{
    for (int32_t i = 0; i < k->calls_n; i++) {
        Py_VISIT(k->calls[i].fn);
        Py_VISIT(k->calls[i].args);
    }
    for (int i = 0; i < k->rng_n; i++) {
        Py_VISIT(k->rng[i].obj);
        Py_VISIT(k->rng[i].gauss);
    }
    Py_VISIT(k->net);
    Py_VISIT(k->packet_cls);
    Py_VISIT(k->stats_absorb);
    Py_VISIT(k->kind_names);
    Py_VISIT(k->kind_intern);
    Py_VISIT(k->ejcnt_view.obj);
    Py_VISIT(k->st_view.obj);
    Py_VISIT(k->tm_view.obj);
    Py_VISIT(k->kind_view.obj);
    Py_VISIT(k->pid_view.obj);
    for (int i = 0; i < MV_N; i++)
        Py_VISIT(k->m_view[i].obj);
    Py_VISIT(k->m_done);
    Py_VISIT(k->listeners);
    Py_VISIT(k->fm);
    Py_VISIT(k->fm_counts_view.obj);
    Py_VISIT(k->fm_rng.obj);
    Py_VISIT(k->fm_rng.gauss);
    Py_VISIT(k->min_rows);
    Py_VISIT(k->leg_rows);
    Py_VISIT(k->minimal_fill);
    Py_VISIT(k->leg_fill);
    Py_VISIT(k->compose);
    return 0;
}

/* Drop every Python reference the kernel holds. */
static int
Kernel_tp_clear(Kernel *k)
{
    kernel_drop_events(k);
    unbind_refs(k);
    watch_drop(k);
    Py_buffer *views[] = {&k->ejcnt_view, &k->st_view, &k->tm_view,
                          &k->kind_view, &k->pid_view};
    for (size_t i = 0; i < sizeof(views) / sizeof(views[0]); i++)
        if (views[i]->obj != NULL)
            PyBuffer_Release(views[i]);
    k->ejcnt = k->st = k->kind_tot = k->last_pid = NULL;
    k->tm = NULL;
    k->nkind = 0;
    Py_CLEAR(k->stats_absorb);
    Py_CLEAR(k->kind_names);
    Py_CLEAR(k->kind_intern);
    Py_CLEAR(k->net);
    Py_CLEAR(k->packet_cls);
    return 0;
}

static void
Kernel_dealloc(Kernel *k)
{
    PyObject_GC_UnTrack(k);
    Kernel_tp_clear(k);
    PyMem_Free(k->heap);
    for (int i = 0; i < NLANES; i++)
        PyMem_Free(k->lanes[i].buf);
    for (int32_t i = 0; i < k->nslots; i++)
        slot_route_size(k, SLOT(k, i), 0);
    for (int32_t i = 0; i < k->npages; i++)
        PyMem_Free(k->slot_pages[i]);
    PyMem_Free(k->slot_pages);
    for (long a = 0; k->rt_off != NULL && k->rt_mid != NULL && a < k->NR; a++) {
        PyMem_Free(k->rt_off[a]);
        PyMem_Free(k->rt_mid[a]);
    }
    if (k->bfs != NULL)
        bfs_drop(k);
    if (k->built) {
        for (long i = 0; i < k->NP * k->V; i++) {
            PyMem_Free(k->pv_oq[i].buf);
            PyMem_Free(k->pv_arr[i].buf);
        }
        for (long i = 0; i < k->NI * k->V; i++)
            PyMem_Free(k->iv_q[i].buf);
        for (long i = 0; i < k->NP; i++)
            PyMem_Free(k->p_pend[i].buf);
        for (long i = 0; i < k->NN; i++) {
            PyMem_Free(k->n_q[i].buf);
            PyMem_Free(k->n_arr[i].buf);
            PyMem_Free(k->g_t[i]);
            PyMem_Free(k->g_d[i]);
            PyMem_Free(k->g_st[i]);
        }
    }
    void *arrays[] = {
        k->p_off, k->p_rid, k->p_dest_in, k->in_pbase, k->in_up_port,
        k->in_up_node, k->n_in, k->n_rid, k->n_eject, k->row_port,
        k->p_has_cred, k->p_busy_t, k->p_busy_s, k->p_sent, k->p_queued,
        k->p_rr, k->p_oqtot, k->p_wake, k->p_dead, k->p_pend, k->pv_occ,
        k->pv_cred, k->pv_mat, k->pv_oq, k->pv_arr, k->iv_q, k->n_busy_t,
        k->n_busy_s, k->n_stalls, k->n_cred, k->n_mat, k->n_qp, k->n_wake,
        k->n_q, k->n_arr, k->g_t, k->g_d, k->g_i, k->g_n,
        k->g_st, k->gen.tab,
        k->a_lat, k->rt_off, k->rt_mid, k->rt_live, k->rt_r,
        k->rt_p, k->rt_v, k->bfs, k->bfs_q,
    };
    for (size_t i = 0; i < sizeof(arrays) / sizeof(arrays[0]); i++)
        PyMem_Free(arrays[i]);
    Py_TYPE(k)->tp_free((PyObject *)k);
}

static PyMemberDef Kernel_members[] = {
    {"now", T_DOUBLE, offsetof(Kernel, now), 0,
     "Current simulated time (ns)."},
    {"seq", T_LONGLONG, offsetof(Kernel, seq), READONLY,
     "Last sequence number handed out."},
    {"cs", T_LONGLONG, offsetof(Kernel, cs), 0,
     "Sequence number of the executing (or last executed) event."},
    {"executed", T_LONGLONG, offsetof(Kernel, executed), 0,
     "Events executed so far."},
    {NULL, 0, 0, 0, NULL},
};

static PyMethodDef Kernel_methods[] = {
    {"call", (PyCFunction)Kernel_call, METH_VARARGS,
     "call(when, fn, args): run fn(*args) at time when, after the events "
     "already queued for it."},
    {"run", (PyCFunction)Kernel_run, METH_VARARGS,
     "run(until=None, max_events=None, fastpath=None) -> executed count."},
    {"pending", (PyCFunction)Kernel_pending, METH_NOARGS,
     "Number of queued events."},
    {"peek_time", (PyCFunction)Kernel_peek_time, METH_NOARGS,
     "Timestamp of the earliest queued event, or None."},
    {"events", (PyCFunction)Kernel_events, METH_NOARGS,
     "All queued event records as tuples (audits)."},
    {"stats", (PyCFunction)Kernel_stats, METH_NOARGS,
     "In-kernel event counts and Python-escape time split."},
    {"memory", (PyCFunction)Kernel_memory, METH_NOARGS,
     "Packet-slot and credit-FIFO occupancy and high-water marks."},
    {"nic_submit", (PyCFunction)(void (*)(void))Kernel_nic_submit,
     METH_FASTCALL,
     "nic_submit(node, dst, size, msg_id, interleave): NIC.submit."},
    {"watch", (PyCFunction)Kernel_watch, METH_VARARGS,
     "watch(left, release, times, groups, kinds, on_complete): arm the "
     "message countdown."},
    {"nic_info", (PyCFunction)Kernel_nic_info, METH_O,
     "nic_info(node) -> (queued_packets, credit_stalls, credits)."},
    {"queue_len", (PyCFunction)(void (*)(void))Kernel_queue_len,
     METH_FASTCALL, "queue_len(router, neighbor): UGAL-L's signal."},
    {"gen_streams", (PyCFunction)Kernel_gen_streams, METH_VARARGS,
     "gen_streams(seeds, pat, table, n, hot, mean_ia, horizon, poisson): "
     "every node's open-loop stream, drawn in C."},
    {"set_dead", (PyCFunction)Kernel_set_dead, METH_VARARGS,
     "set_dead(gid, flag): mark an output port failed or live."},
    {"drain_port", (PyCFunction)Kernel_drain_port, METH_O,
     "drain_port(gid): fail-time drain of a dead port (inside a run)."},
    {"reset_sent", (PyCFunction)Kernel_reset_sent, METH_NOARGS,
     "Zero the per-port transmission counters."},
    {"view", (PyCFunction)Kernel_view, METH_O,
     "view(name): bytes copy of one state array."},
    {"lengths", (PyCFunction)Kernel_lengths, METH_O,
     "lengths(name): int32 bytes of every queue's length."},
    {"queue", (PyCFunction)Kernel_queue, METH_VARARGS,
     "queue(name, i): one queue's entries, head first."},
    {"next_port", (PyCFunction)Kernel_next_port, METH_O,
     "next_port(slot) -> (hop, port index the packet requests)."},
    {"route_candidates", (PyCFunction)Kernel_route_candidates, METH_VARARGS,
     "route_candidates(a, b, legs=False): the route table's live "
     "candidates of a router pair, or None when it escapes."},
    {"route_compose", (PyCFunction)Kernel_route_compose, METH_VARARGS,
     "route_compose(first, second): the composed Valiant route, or None."},
    {NULL, NULL, 0, NULL},
};

static PyTypeObject KernelType = {
    PyVarObject_HEAD_INIT(NULL, 0)
    .tp_name = "repro.sim.vec._kernel.Kernel",
    .tp_basicsize = sizeof(Kernel),
    .tp_dealloc = (destructor)Kernel_dealloc,
    .tp_flags = Py_TPFLAGS_DEFAULT | Py_TPFLAGS_HAVE_GC,
    .tp_doc = "Compiled event set, simulation state and dispatch core.",
    .tp_traverse = (traverseproc)Kernel_traverse,
    .tp_clear = (inquiry)Kernel_tp_clear,
    .tp_methods = Kernel_methods,
    .tp_members = Kernel_members,
    .tp_init = (initproc)Kernel_init,
    .tp_new = PyType_GenericNew,
};

/* -- the latency window's reduction -------------------------------------------- */

/* numpy's pairwise sum of a[0..n) (DOUBLE_pairwise_sum in its
 * loops_utils.h.src), in the same order: a plain loop below 8 values,
 * eight interleaved accumulators up to PW_BLOCKSIZE values, and above
 * that the two halves of a split at a multiple of 8. */
#define PW_BLOCKSIZE 128

static double
pairwise_sum(const double *a, Py_ssize_t n)
{
    if (n < 8) {
        double res = -0.0;
        for (Py_ssize_t i = 0; i < n; i++)
            res += a[i];
        return res;
    }
    if (n <= PW_BLOCKSIZE) {
        double r[8];
        Py_ssize_t i;
        for (int j = 0; j < 8; j++)
            r[j] = a[j];
        for (i = 8; i < n - n % 8; i += 8)
            for (int j = 0; j < 8; j++)
                r[j] += a[i + j];
        double res = ((r[0] + r[1]) + (r[2] + r[3])) +
                     ((r[4] + r[5]) + (r[6] + r[7]));
        for (; i < n; i++)
            res += a[i];
        return res;
    }
    Py_ssize_t n2 = n / 2;
    n2 -= n2 % 8;
    return pairwise_sum(a, n2) + pairwise_sum(a + n2, n - n2);
}

/* Reorder a[left..right] so that a[k] holds the value of rank k in
 * it, with no larger value before it and no smaller one after it: the
 * Floyd-Rivest selection (CACM Algorithm 489).  Above 600 values it
 * first selects within a sample around k, so a[k] is a pivot close to
 * the wanted rank and one partition of the range leaves few values to
 * search; for the 99th percentile that partition's scans are nearly
 * branch-free.  Both scans stop at values equal to the pivot, so runs
 * of ties split evenly. */
static void
select_kth(double *a, Py_ssize_t left, Py_ssize_t right, Py_ssize_t k)
{
#define SWAP(x, y) do { double t_ = (x); (x) = (y); (y) = t_; } while (0)
    while (right > left) {
        if (right - left > 600) {
            double n = (double)(right - left + 1), i = (double)(k - left + 1);
            double z = log(n), s = 0.5 * exp(2.0 * z / 3.0);
            double sd = 0.5 * sqrt(z * s * (n - s) / n) * (i < n / 2 ? -1 : 1);
            double nl = floor((double)k - i * s / n + sd);
            double nr = floor((double)k + (n - i) * s / n + sd);
            select_kth(a, nl > left ? (Py_ssize_t)nl : left,
                       nr < right ? (Py_ssize_t)nr : right, k);
        }
        double t = a[k];
        Py_ssize_t i = left, j = right;
        SWAP(a[left], a[k]);
        if (a[right] > t)
            SWAP(a[right], a[left]);
        while (i < j) {
            SWAP(a[i], a[j]);
            i++;
            j--;
            while (a[i] < t)
                i++;
            while (a[j] > t)
                j--;
        }
        if (a[left] == t) {
            SWAP(a[left], a[j]);
        } else {
            j++;
            SWAP(a[j], a[right]);
        }
        if (j <= k)
            left = j + 1;
        if (k <= j)
            right = j - 1;
    }
#undef SWAP
}

/* window_reduce(latencies) -> (mean, p99) of a non-empty float64 buffer
 * of finite values, bit for bit np.mean(x) and np.percentile(x, 99)
 * (repro.sim.stats.percentile99): numpy's pairwise sum, added to 0.0 as
 * its reduction starts and divided by the count, and the two order
 * statistics around the virtual index (n - 1) * 0.99, selected on a
 * copy and interpolated as numpy's _lerp does.  The kernel engine hands
 * it to its StatsCollector, so a kernel run reduces its window without
 * numpy. */
static PyObject *
mod_window_reduce(PyObject *Py_UNUSED(self), PyObject *arg)
{
    Py_buffer view;
    if (bind_buffer(arg, &view, PyBUF_CONTIG_RO, "d", sizeof(double), -1,
                    "the latencies", "a float64 array") < 0)
        return NULL;
    Py_ssize_t n = view.shape[0];
    double *a = n > 0 ? (double *)PyMem_Malloc((size_t)n * sizeof(double))
                      : NULL;
    if (a == NULL) {
        PyBuffer_Release(&view);
        return n > 0 ? PyErr_NoMemory()
                     : PyErr_Format(PyExc_ValueError,
                                    "kernel: no latencies to reduce");
    }
    memcpy(a, view.buf, (size_t)n * sizeof(double));
    double mean = (0.0 + pairwise_sum(a, n)) / (double)n;
    PyBuffer_Release(&view);
    double v = (double)(n - 1) * 0.99, lo_f = floor(v), g = v - lo_f;
    Py_ssize_t lo = (Py_ssize_t)lo_f;
    select_kth(a, 0, n - 1, lo);
    double below = a[lo], above = below; /* n == 1: the only value */
    if (lo + 1 < n) {
        above = a[lo + 1];
        for (Py_ssize_t i = lo + 2; i < n; i++)
            if (a[i] < above)
                above = a[i];
    }
    PyMem_Free(a);
    double d = above - below;
    double p99 = g >= 0.5 ? above - d * (1.0 - g) : below + d * g;
    return Py_BuildValue("(dd)", mean, p99);
}

/* Test hooks (tests/test_kernel_rng_parity.py).  Each runs the C
 * generator exactly as the kernel does, so draw-for-draw equality with
 * random.Random here is the parity proof per draw site. */

/* Perform the scripted draws *ops* on *g*: ("randbelow", n),
 * ("getrandbits", k), ("random",), ("uniform", a, b) and
 * ("expovariate", lambd). */
static PyObject *
mt_run_ops(MT *g, PyObject *ops)
{
    PyObject *seq = PySequence_Fast(ops, "ops must be a sequence");
    if (seq == NULL)
        return NULL;
    PyObject *out = PyList_New(0);
    if (out == NULL)
        goto fail;
    for (Py_ssize_t i = 0; i < PySequence_Fast_GET_SIZE(seq); i++) {
        PyObject *op = PySequence_Fast_GET_ITEM(seq, i);
        const char *kind;
        PyObject *x = NULL, *y = NULL;
        if (!PyArg_ParseTuple(op, "s|OO", &kind, &x, &y))
            goto fail;
        PyObject *v;
        if (strcmp(kind, "random") == 0) {
            v = PyFloat_FromDouble(mt_random(g));
        } else if (strcmp(kind, "uniform") == 0 ||
                   strcmp(kind, "expovariate") == 0) {
            double a = x ? PyFloat_AsDouble(x) : -1.0;
            double b = y ? PyFloat_AsDouble(y) : -1.0;
            if (PyErr_Occurred())
                goto fail;
            v = PyFloat_FromDouble(kind[0] == 'u' ? mt_uniform(g, a, b)
                                                  : mt_expovariate(g, a));
        } else {
            long arg = x ? PyLong_AsLong(x) : -1;
            if (arg == -1 && PyErr_Occurred())
                goto fail;
            if (strcmp(kind, "randbelow") == 0) {
                v = PyLong_FromLong(mt_randbelow(g, arg));
            } else if (strcmp(kind, "getrandbits") == 0) {
                if (arg < 1 || arg > 32) {
                    PyErr_SetString(PyExc_ValueError,
                                    "getrandbits arg must be in [1, 32]");
                    goto fail;
                }
                v = PyLong_FromUnsignedLong(mt_getrandbits(g, (int)arg));
            } else {
                PyErr_Format(PyExc_ValueError, "unknown op %s", kind);
                goto fail;
            }
        }
        if (v == NULL)
            goto fail;
        int ar = PyList_Append(out, v);
        Py_DECREF(v);
        if (ar < 0)
            goto fail;
    }
    Py_DECREF(seq);
    return out;
fail:
    Py_XDECREF(out);
    Py_DECREF(seq);
    return NULL;
}

/* _rng_parity(rng, ops): import *rng*'s state, draw *ops* in C, export
 * the advanced state back -- the route fast path's import -> draw ->
 * export path. */
static PyObject *
mod_rng_parity(PyObject *Py_UNUSED(self), PyObject *args)
{
    PyObject *rng_obj, *ops;
    if (!PyArg_ParseTuple(args, "OO", &rng_obj, &ops))
        return NULL;
    CRng r;
    memset(&r, 0, sizeof(r));
    r.obj = Py_NewRef(rng_obj);
    PyObject *out = crng_import(&r) < 0 ? NULL : mt_run_ops(&r.g, ops);
    if (out != NULL && crng_export(&r) < 0)
        Py_CLEAR(out);
    crng_drop(&r);
    return out;
}

/* _rng_seeded(seed, ops) -> (draws, state): random.Random(seed) seeded
 * in C, as the traffic generator seeds each node, then *ops*; *state*
 * is in the layout of getstate().  Given a list of seeds, it seeds them
 * together, as gen_streams seeds a network's nodes, and returns a list
 * of one (draws, state) per seed. */
static PyObject *
mod_rng_seeded(PyObject *Py_UNUSED(self), PyObject *args)
{
    PyObject *seedo, *ops;
    if (!PyArg_ParseTuple(args, "OO", &seedo, &ops))
        return NULL;
    int one = PyLong_Check(seedo);
    PyObject *fs = one ? PyTuple_Pack(1, seedo)
                       : PySequence_Fast(seedo, "seeds must be a sequence");
    if (fs == NULL)
        return NULL;
    Py_ssize_t n = PySequence_Fast_GET_SIZE(fs);
    size_t cap = (size_t)(n ? n : 1);
    uint64_t *sv = (uint64_t *)PyMem_Malloc(cap * sizeof(uint64_t));
    MT *g = (MT *)PyMem_Malloc(cap * sizeof(MT));
    MT **gp = (MT **)PyMem_Malloc(cap * sizeof(MT *));
    PyObject *out = NULL, *list = NULL;
    if (sv == NULL || g == NULL || gp == NULL) {
        PyErr_NoMemory();
        goto done;
    }
    for (Py_ssize_t i = 0; i < n; i++) {
        sv[i] = PyLong_AsUnsignedLongLong(PySequence_Fast_GET_ITEM(fs, i));
        if (sv[i] == (uint64_t)-1 && PyErr_Occurred())
            goto done;
        gp[i] = &g[i];
    }
    mt_seed(gp, sv, (long)n);
    if ((list = PyList_New(n)) == NULL)
        goto done;
    for (Py_ssize_t i = 0; i < n; i++) {
        PyObject *draws = mt_run_ops(&g[i], ops);
        PyObject *item = draws == NULL ? NULL
            : Py_BuildValue("(NN)", draws, mt_getstate(&g[i], NULL));
        if (item == NULL)
            goto done;
        PyList_SET_ITEM(list, i, item);
    }
    out = Py_NewRef(one ? PyList_GET_ITEM(list, 0) : list);
done:
    Py_XDECREF(list);
    PyMem_Free(gp);
    PyMem_Free(g);
    PyMem_Free(sv);
    Py_DECREF(fs);
    return out;
}

/* _gen_stream(seed, node, nn, pat, table, n, hot, mean_ia, horizon,
 * poisson) -> (times, dsts, chunks): one node's whole stream, drawn
 * chunk by chunk exactly as gen_streams and the GEN handler draw it. */
static PyObject *
mod_gen_stream(PyObject *Py_UNUSED(self), PyObject *args)
{
    long node, nn, n;
    int pat, poisson;
    PyObject *seedo, *table;
    double hot, mean_ia, horizon;
    if (!PyArg_ParseTuple(args, "OlliOldddp", &seedo, &node, &nn, &pat,
                          &table, &n, &hot, &mean_ia, &horizon, &poisson))
        return NULL;
    unsigned long long seed = PyLong_AsUnsignedLongLong(seedo);
    if (seed == (unsigned long long)-1 && PyErr_Occurred())
        return NULL;
    if (node < 0 || node >= nn) {
        PyErr_SetString(PyExc_ValueError, "node out of range");
        return NULL;
    }
    GenSpec g;
    if (gen_spec_load(&g, nn, pat, table, n, hot, mean_ia, horizon,
                      poisson) < 0)
        return NULL;
    GenState st;
    MT *mt = &st.mt;
    uint64_t sv = (uint64_t)seed;
    mt_seed(&mt, &sv, 1);
    st.t = mt_uniform(&st.mt, 0.0, mean_ia);
    PyObject *times = PyList_New(0), *dsts = PyList_New(0);
    long chunks = 0;
    int done = 0;
    while (times != NULL && dsts != NULL && !done) {
        double bt[GEN_CHUNK];
        int32_t bd[GEN_CHUNK];
        int32_t m = gen_fill(&g, &st, node, bt, bd, GEN_CHUNK, &done);
        chunks += 1;
        for (int32_t i = 0; i < m; i++) {
            PyObject *tv = PyFloat_FromDouble(bt[i]);
            PyObject *dv = PyLong_FromLong(bd[i]);
            int bad = tv == NULL || dv == NULL ||
                      PyList_Append(times, tv) < 0 ||
                      PyList_Append(dsts, dv) < 0;
            Py_XDECREF(tv);
            Py_XDECREF(dv);
            if (bad) {
                Py_CLEAR(times);
                break;
            }
        }
    }
    PyMem_Free(g.tab);
    if (times == NULL || dsts == NULL) {
        Py_XDECREF(times);
        Py_XDECREF(dsts);
        return NULL;
    }
    return Py_BuildValue("(NNl)", times, dsts, chunks);
}

static PyMethodDef module_methods[] = {
    {"window_reduce", mod_window_reduce, METH_O,
     "window_reduce(latencies) -> (mean, p99), as numpy computes them."},
    {"_rng_parity", mod_rng_parity, METH_VARARGS,
     "_rng_parity(rng, ops) -> list of draws. Test-only."},
    {"_rng_seeded", mod_rng_seeded, METH_VARARGS,
     "_rng_seeded(seed, ops) -> (draws, state). Test-only."},
    {"_gen_stream", mod_gen_stream, METH_VARARGS,
     "_gen_stream(seed, node, nn, pat, table, n, hot, mean_ia, horizon, "
     "poisson) -> (times, dsts, chunks). Test-only."},
    {NULL, NULL, 0, NULL},
};

static struct PyModuleDef kernelmodule = {
    PyModuleDef_HEAD_INIT,
    .m_name = "_kernel",
    .m_doc = "Compiled event kernel and state of the simulator.",
    .m_size = -1,
    .m_methods = module_methods,
};

PyMODINIT_FUNC
PyInit__kernel(void)
{
    struct {
        PyObject **dst;
        const char *s;
    } names[] = {
        {&str_routers, "routers"}, {&str_ports, "ports"}, {&str_vcs, "vcs"},
        {&str_kind, "kind"}, {&str_pid, "pid"}, {&str_send_time, "send_time"},
        {&str_eject_time, "eject_time"}, {&str_hop, "hop"},
        {&str_delivery_listeners, "_delivery_listeners"},
        {&str_make_packet, "make_packet"},
        {&str_minimal, "minimal"}, {&str_indirect, "indirect"},
    };
    for (size_t i = 0; i < sizeof(names) / sizeof(names[0]); i++)
        if ((*names[i].dst = PyUnicode_InternFromString(names[i].s)) == NULL)
            return NULL;
    if (PyType_Ready(&KernelType) < 0)
        return NULL;
    PyObject *m = PyModule_Create(&kernelmodule);
    if (m == NULL)
        return NULL;
    Py_INCREF(&KernelType);
    if (PyModule_AddObject(m, "Kernel", (PyObject *)&KernelType) < 0) {
        Py_DECREF(&KernelType);
        Py_DECREF(m);
        return NULL;
    }
    return m;
}
