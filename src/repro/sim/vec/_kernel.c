/* Compiled event kernel of the simulator (repro.sim.vec.kernel).
 *
 * The ``Kernel`` object owns the pending-event set (a binary heap of
 * typed event structs) *and* every piece of mutable simulation state
 * the opcode handlers touch.  ``KernelEngine`` builds it once from the
 * read-only wiring in ``SoAState`` (repro/sim/vec/state.py):
 *
 * - per-port, per-port-VC, per-input and per-NIC scalars are typed C
 *   arrays indexed by the wiring's flat ids (port gid, ``gid * V + vc``,
 *   input gid, node);
 * - output queues, input-VC queues, the pending-input lists and the NIC
 *   descriptor queues are growable C ring buffers;
 * - credit arrivals are FIFOs of ``(time, seq)`` keys that hold only the
 *   credits still on the wire, plus a per-VC *matured* count of arrivals
 *   whose key has passed but that are not yet materialised into the
 *   credit count (``credit_push`` / ``credit_drain``);
 * - packets are slots recycled on delivery.  A slot holds the hop
 *   cursor, the port and VC of every hop, endpoints, size, times, the
 *   message id and a strong reference to its ``Route``.
 *
 * A ``repro.sim.packet.Packet`` is built for a slot only when Python has
 * to see one: the make_packet and deliver escapes, a delivery observer
 * (listener, tracer, message tracker, checker), a fault divert, or the
 * checker's audits.  With no observer attached the RECV, ENTER, PWAKE,
 * NWAKE, GEN and DELIVER handlers allocate no Python objects, and
 * memory scales with the packets and credits in flight rather than with
 * the packets and hops of the whole run.
 *
 * Exactness contract (the elision model in repro/sim/vec/kernel.py):
 * every handler reserves sequence numbers in the object engine's order,
 * compares busy keys and drains credits lazily with the same key tests,
 * and forms every timestamp with the same float additions.  The heap
 * pops in global ``(time, seq)`` order: pushes are never at or before
 * the executing key, and the only same-key collisions are duplicate
 * wake records, whose relative order is immaterial (a spurious wake
 * re-checks state and no-ops).  The golden conformance suite, the
 * RNG-parity tests and the cross-backend fuzz harness hold the kernel
 * to the object engine bit for bit.
 */
#define PY_SSIZE_T_CLEAN
#include <Python.h>
#include <structmember.h>
#include <stdint.h>
#include <stdlib.h>
#include <string.h>
#include <time.h>

/* Event opcodes -- must match repro/sim/vec/kernel.py. */
enum {
    OP_RECV = 0,    /* a=input gid, b=vc, c=slot -- arrival at an input */
    OP_ENTER = 1,   /* a=port-vc id, b=slot, c=port gid -- enter an OQ */
    OP_PWAKE = 2,   /* a=port gid -- elided link-free/credit retry */
    OP_DELIVER = 3, /* c=slot -- the packet reaches its NIC */
    OP_NWAKE = 4,   /* a=node -- elided NIC link-free/credit retry */
    OP_GEN = 5,     /* a=node -- pregenerated synthetic injection */
    OP_CALL = 6,    /* fn(*args) -- generic scheduled callback */
    OP_COUNT = 7
};

/* Python-escape slots for the --profile split. */
enum { ESC_MAKE = 0, ESC_DELIVER = 1, ESC_CALL = 2, ESC_DIVERT = 3,
       ESC_FLUSH = 4, ESC_N = 5 };

/* Fast-path counters (per-packet work kept fully in C). */
enum { FAST_MAKE = 0, FAST_DELIVER = 1, FAST_N = 2 };

/* Distinct route kinds ("minimal", "indirect", ...) a kernel counts. */
#define MAX_KINDS 16

typedef struct {
    double t;
    long long seq;
    int op;
    long a, b, c;
    PyObject *fn;   /* OP_CALL only: callable (owned) */
    PyObject *args; /* OP_CALL only: argument tuple (owned) */
} Event;

/* -- MT19937: a bit-exact replica of CPython's random.Random core ---------
 *
 * The route fast path must consume the *same* draw stream as the
 * routing algorithms' ``random.Random`` instances: the engines'
 * bit-identity contract pins every selection to the shared seeded
 * stream, and the Python objects draw again once the run is over.  So
 * the generator state is *imported* from ``Random.getstate()`` at run
 * start, advanced here with the reference Mersenne Twister recurrence
 * and CPython's exact ``getrandbits``/``_randbelow`` derivations, and
 * *exported* back via ``Random.setstate()`` at run end.  In between no
 * Python code draws from these streams: every NIC send, including one
 * submitted from a scheduled CALL, routes in C.  The
 * tempering constants and the rejection loop below must match
 * Modules/_randommodule.c and Lib/random.py draw for draw --
 * tests/test_kernel_rng_parity.py asserts it per draw site.
 */

#define MT_N 624
#define MT_M 397
#define MT_MATRIX_A 0x9908b0dfUL
#define MT_UPPER_MASK 0x80000000UL
#define MT_LOWER_MASK 0x7fffffffUL

typedef struct {
    uint32_t mt[MT_N];
    int mti;
    PyObject *obj;   /* the random.Random instance (owned while imported) */
    PyObject *gauss; /* getstate()'s third element, round-tripped (owned) */
} CRng;

static uint32_t
mt_next(CRng *r)
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

/* random.getrandbits(k) for 0 < k <= 32. */
static inline uint32_t
mt_getrandbits(CRng *r, int k)
{
    return mt_next(r) >> (32 - k);
}

/* Random._randbelow_with_getrandbits(n): k = n.bit_length() bits,
 * rejection-sampled.  Same draw count as the Python wrapper, including
 * the (never hot) n == 1 case that still consumes draws. */
static long
mt_randbelow(CRng *r, long n)
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
        r->mt[i] = (uint32_t)w;
    }
    long mti = PyLong_AsLong(PyTuple_GET_ITEM(inner, MT_N));
    if (mti == -1 && PyErr_Occurred()) {
        Py_DECREF(state);
        return -1;
    }
    r->mti = (int)mti;
    Py_XDECREF(r->gauss);
    r->gauss = PyTuple_GET_ITEM(state, 2);
    Py_INCREF(r->gauss);
    Py_DECREF(state);
    return 0;
}

/* Push the (possibly advanced) MT state back into ``r->obj`` via
 * setstate, so Python-side draws resume exactly where C stopped. */
static int
crng_export(CRng *r)
{
    PyObject *inner = PyTuple_New(MT_N + 1);
    if (inner == NULL)
        return -1;
    for (int i = 0; i < MT_N; i++) {
        PyObject *w = PyLong_FromUnsignedLong((unsigned long)r->mt[i]);
        if (w == NULL) {
            Py_DECREF(inner);
            return -1;
        }
        PyTuple_SET_ITEM(inner, i, w);
    }
    PyObject *w = PyLong_FromLong((long)r->mti);
    if (w == NULL) {
        Py_DECREF(inner);
        return -1;
    }
    PyTuple_SET_ITEM(inner, MT_N, w);
    PyObject *state = Py_BuildValue("(lNO)", 3L, inner,
                                    r->gauss ? r->gauss : Py_None);
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

/* One queued NIC send: the descriptor plus its generation time. */
typedef struct {
    double gen;
    long long size;
    PyObject *msg_id; /* owned */
    int32_t dst;
} Desc;

typedef struct {
    Desc *buf;
    int32_t head, len, cap;
} DRing;

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

/* -- packet slots ---------------------------------------------------------- */

typedef struct {
    long long pid;
    double gen_time, send_time;
    long long size;
    PyObject *route;  /* compiled Route (fast path); NULL once pkt is set */
    PyObject *msg_id; /* owned */
    PyObject *pkt;    /* materialised Packet (owned), or NULL */
    int32_t *path;    /* ports[0..cap) then vcs[0..cap), reused on recycle */
    int32_t cap;
    int32_t nports;   /* hop ports + the ejection port */
    int32_t src, dst, hop, nhops, kind;
    int32_t next;     /* free-list link */
} Slot;

#define S_PORT(p, h) ((p)->path[(h)])
#define S_VC(p, h) ((p)->path[(p)->cap + (h)])

/* Pointer-keyed memo in front of RouteCache._composed (see fp_compose). */
typedef struct {
    PyObject *a, *b, *route; /* all owned; a == NULL marks an empty bucket */
} MemoEnt;

/* -- the kernel object ------------------------------------------------------ */

typedef struct {
    PyObject_HEAD
    /* clock and sequence counter, shared with Python through members */
    double now;
    long long seq, cs, executed;
    long long pkt_bytes; /* packet size of the pregenerated streams */
    int built, running;

    /* pending events */
    Event *heap;
    Py_ssize_t size, cap;

    /* --profile accounting */
    unsigned long long op_counts[OP_COUNT];
    unsigned long long esc_counts[ESC_N];
    double esc_ns[ESC_N];
    unsigned long long fast_counts[FAST_N];
    double run_ns;
    unsigned long long runs;

    /* dimensions and physics constants */
    long V, NN, NR, NP, NI, OQ_CAP, VC_CAP, NIC_CAP;
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
    int32_t *n_cred, *n_mat, *n_qp;
    uint8_t *n_wake;
    DRing *n_q;
    KRing *n_arr;
    PyObject **n_src;

    /* pregenerated synthetic streams (per node) */
    double **g_t;
    int32_t **g_d;
    int32_t *g_i, *g_n;

    /* packet slots */
    Slot *slots;
    int32_t nslots, slot_cap, free_head, live, hwm;
    int32_t arr_hwm, narr_hwm; /* longest router / NIC credit FIFO seen */

    /* route kinds seen, and bindings fixed at build time */
    PyObject *kinds[MAX_KINDS];
    int nkinds;
    PyObject *net, *packet_cls;

    /* -- per-run bindings (bind_run / unbind_refs) ------------------------ */
    PyObject *deliver;   /* net.deliver (checker-wrapped if any) */
    PyObject *fm_divert; /* fault_manager.divert_packet, or NULL */
    int route_mode;      /* -1 off, 0 min-rand, 1 min-best, 2 INR, 3 UGAL */
    int deliver_fast;    /* 1 = accumulate delivery stats in C */
    PyObject *min_rows, *leg_rows, *composed, *selfs;
    PyObject *minimal_fill, *leg_fill, *compose, *compose_or_none;
    PyObject *self_route;
    int32_t *pool;
    long npool, nI;
    int sf_mode, has_thr;
    double cc, c_sf, thr_cap;
    CRng rng[2];
    int rng_n, resident;
    long long pid; /* Network._pid while resident */
    PyObject *stats_absorb;
    double win_start, win_end;
    int win_has_end;

    /* delivery/injection accumulators, flushed via absorb_kernel */
    int stats_dirty;
    long long a_inj, a_inj_w, a_ej, a_ej_w, a_bytes, a_hops;
    double a_first, a_last;
    int a_has_first, a_has_last;
    double *a_lat;
    Py_ssize_t a_lat_n, a_lat_cap;
    long long *a_ejcnt;                 /* len NN */
    long long a_kind_cnt[MAX_KINDS];
    int a_kind_order[MAX_KINDS], a_nkind_order;

    /* route memos that persist across runs */
    MemoEnt *memo;
    size_t memo_cap, memo_n;
    PyObject **self_routes; /* len NR */
} Kernel;

/* Interned attribute names (module init). */
static PyObject *str_routers, *str_ports, *str_vcs, *str_kind, *str_pid;
static PyObject *str_send_time, *str_eject_time, *str_deliver;
static PyObject *str_fault_manager, *str_divert_packet, *str_tracer;
static PyObject *str_msg_track, *str_delivery_listeners, *str_make_packet;
static PyObject *str_stats, *str_record_inject, *str_net_pid;

static double
mono_ns(void)
{
    struct timespec ts;
    clock_gettime(CLOCK_MONOTONIC, &ts);
    return (double)ts.tv_sec * 1e9 + (double)ts.tv_nsec;
}


/* -- binary heap ---------------------------------------------------------- */

static inline int
ev_lt(const Event *x, const Event *y)
{
    return x->t < y->t || (x->t == y->t && x->seq < y->seq);
}

static int
heap_push_ev(Kernel *k, Event ev)
{
    if (k->size >= k->cap) {
        Py_ssize_t ncap = k->cap ? k->cap * 2 : 1024;
        Event *nh = (Event *)PyMem_Realloc(k->heap, (size_t)ncap * sizeof(Event));
        if (nh == NULL) {
            Py_XDECREF(ev.fn);
            Py_XDECREF(ev.args);
            PyErr_NoMemory();
            return -1;
        }
        k->heap = nh;
        k->cap = ncap;
    }
    Event *h = k->heap;
    Py_ssize_t i = k->size++;
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
    Event last = h[--k->size];
    Py_ssize_t n = k->size;
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

static inline int
kpush(Kernel *k, double t, long long seq, int op, long a, long b, long c)
{
    Event ev = {t, seq, op, a, b, c, NULL, NULL};
    return heap_push_ev(k, ev);
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

static int32_t
slot_alloc(Kernel *k)
{
    int32_t si;
    if (k->free_head >= 0) {
        si = k->free_head;
        k->free_head = k->slots[si].next;
    } else {
        if (k->nslots == k->slot_cap) {
            int32_t ncap = k->slot_cap ? k->slot_cap * 2 : 1024;
            Slot *ns = (Slot *)PyMem_Realloc(k->slots,
                                             (size_t)ncap * sizeof(Slot));
            if (ns == NULL) {
                PyErr_NoMemory();
                return -1;
            }
            memset(ns + k->slot_cap, 0,
                   (size_t)(ncap - k->slot_cap) * sizeof(Slot));
            k->slots = ns;
            k->slot_cap = ncap;
        }
        si = k->nslots++;
    }
    Slot *p = &k->slots[si];
    p->route = p->msg_id = p->pkt = NULL;
    p->hop = 0;
    p->next = -1;
    k->live += 1;
    if (k->live > k->hwm)
        k->hwm = k->live;
    return si;
}

/* Return a delivered or dropped packet's slot to the free list. */
static void
slot_release(Kernel *k, int32_t si)
{
    Slot *p = &k->slots[si];
    PyObject *route = p->route, *msg_id = p->msg_id, *pkt = p->pkt;
    p->route = p->msg_id = p->pkt = NULL;
    p->next = k->free_head;
    k->free_head = si;
    k->live -= 1;
    Py_XDECREF(route);
    Py_XDECREF(msg_id);
    Py_XDECREF(pkt);
}

/* Interned index of a route kind (for the C-side kind counters). */
static int
kind_index(Kernel *k, PyObject *kind)
{
    for (int i = 0; i < k->nkinds; i++)
        if (k->kinds[i] == kind)
            return i;
    for (int i = 0; i < k->nkinds; i++) {
        int eq = PyObject_RichCompareBool(k->kinds[i], kind, Py_EQ);
        if (eq < 0)
            return -1;
        if (eq)
            return i;
    }
    if (k->nkinds == MAX_KINDS) {
        PyErr_SetString(PyExc_RuntimeError, "kernel: too many route kinds");
        return -1;
    }
    Py_INCREF(kind);
    k->kinds[k->nkinds] = kind;
    return k->nkinds++;
}

/* Load a slot's per-hop ports and VCs.  *ports* holds the hop ports
 * and, when eject < 0, already ends with the ejection port; the VC row
 * is padded with zeros so hop h may read vcs[h] unconditionally (the
 * ejection hop included). */
static int
slot_load_path(Kernel *k, int32_t si, PyObject *ports, long eject,
               PyObject *vcs, PyObject *routers)
{
    if (!PyTuple_Check(ports) || !PyTuple_Check(vcs) ||
        !PyTuple_Check(routers)) {
        PyErr_SetString(PyExc_TypeError,
                        "kernel: route without tuple routers/ports/vcs");
        return -1;
    }
    Py_ssize_t nh = PyTuple_GET_SIZE(ports);
    Py_ssize_t np = eject >= 0 ? nh + 1 : nh;
    Py_ssize_t nv = PyTuple_GET_SIZE(vcs);
    Py_ssize_t need = (np > nv ? np : nv) + 1;
    if (need > INT32_MAX / 2) {
        PyErr_SetString(PyExc_OverflowError, "kernel: route too long");
        return -1;
    }
    Slot *p = &k->slots[si];
    if (p->cap < need) {
        int32_t *np2 = (int32_t *)PyMem_Realloc(
            p->path, (size_t)need * 2 * sizeof(int32_t));
        if (np2 == NULL) {
            PyErr_NoMemory();
            return -1;
        }
        p->path = np2;
        p->cap = (int32_t)need;
    }
    memset(p->path, 0, (size_t)p->cap * 2 * sizeof(int32_t));
    for (Py_ssize_t i = 0; i < nh; i++) {
        long v = PyLong_AsLong(PyTuple_GET_ITEM(ports, i));
        if (v == -1 && PyErr_Occurred())
            return -1;
        p->path[i] = (int32_t)v;
    }
    if (eject >= 0)
        p->path[nh] = (int32_t)eject;
    for (Py_ssize_t i = 0; i < nv; i++) {
        long v = PyLong_AsLong(PyTuple_GET_ITEM(vcs, i));
        if (v == -1 && PyErr_Occurred())
            return -1;
        p->path[p->cap + i] = (int32_t)v;
    }
    p->nports = (int32_t)np;
    p->nhops = (int32_t)PyTuple_GET_SIZE(routers) - 1;
    return 0;
}

/* Reload a slot's path from its Packet (escape-made or rewritten). */
static int
slot_load_packet(Kernel *k, int32_t si, PyObject *pkt)
{
    PyObject *ports = PyObject_GetAttr(pkt, str_ports);
    PyObject *vcs = ports ? PyObject_GetAttr(pkt, str_vcs) : NULL;
    PyObject *routers = vcs ? PyObject_GetAttr(pkt, str_routers) : NULL;
    int rc = -1;
    if (routers != NULL)
        rc = slot_load_path(k, si, ports, -1, vcs, routers);
    Py_XDECREF(routers);
    Py_XDECREF(vcs);
    Py_XDECREF(ports);
    return rc;
}

/* The slot's Packet, built on first request and kept by the slot
 * (borrowed reference).  Field for field what make_packet returns plus
 * the kernel's send time; ``hop`` stays 0 as it always has for packets
 * the kernel moves (the slot's hop cursor is authoritative). */
static PyObject *
slot_packet(Kernel *k, int32_t si)
{
    Slot *p = &k->slots[si];
    if (p->pkt != NULL)
        return p->pkt;
    PyObject *route = p->route;
    if (route == NULL) {
        PyErr_SetString(PyExc_RuntimeError, "kernel: slot has no route");
        return NULL;
    }
    PyObject *routers = NULL, *vcs = NULL, *kind = NULL, *ports = NULL;
    PyObject *pkt = NULL, *tf = NULL;
    routers = PyObject_GetAttr(route, str_routers);
    vcs = routers ? PyObject_GetAttr(route, str_vcs) : NULL;
    kind = vcs ? PyObject_GetAttr(route, str_kind) : NULL;
    if (kind == NULL)
        goto done;
    p = &k->slots[si];
    ports = PyTuple_New(p->nports);
    if (ports == NULL)
        goto done;
    for (int32_t i = 0; i < p->nports; i++) {
        PyObject *v = PyLong_FromLong(p->path[i]);
        if (v == NULL)
            goto done;
        PyTuple_SET_ITEM(ports, i, v);
    }
    pkt = PyObject_CallFunction(k->packet_cls, "LiiLOOOOdO", p->pid,
                                (int)p->src, (int)p->dst, p->size, routers,
                                ports, vcs, kind, p->gen_time, p->msg_id);
    if (pkt == NULL)
        goto done;
    p = &k->slots[si];
    tf = PyFloat_FromDouble(p->send_time);
    if (tf == NULL || PyObject_SetAttr(pkt, str_send_time, tf) < 0) {
        Py_CLEAR(pkt);
        goto done;
    }
    k->slots[si].pkt = pkt;
done:
    Py_XDECREF(tf);
    Py_XDECREF(ports);
    Py_XDECREF(kind);
    Py_XDECREF(vcs);
    Py_XDECREF(routers);
    return pkt;
}

/* -- composed-route memo ----------------------------------------------------- */

static inline size_t
memo_hash(PyObject *a, PyObject *b)
{
    uint64_t h = ((uint64_t)(uintptr_t)a >> 4) * 0x9E3779B97F4A7C15ULL;
    h ^= ((uint64_t)(uintptr_t)b >> 4) * 0xC2B2AE3D27D4EB4FULL;
    h ^= h >> 29;
    return (size_t)h;
}

static PyObject *
memo_get(Kernel *k, PyObject *a, PyObject *b)
{
    if (k->memo_cap == 0)
        return NULL;
    size_t mask = k->memo_cap - 1;
    for (size_t i = memo_hash(a, b) & mask;; i = (i + 1) & mask) {
        MemoEnt *e = &k->memo[i];
        if (e->a == NULL)
            return NULL;
        if (e->a == a && e->b == b)
            return e->route;
    }
}

static int
memo_put(Kernel *k, PyObject *a, PyObject *b, PyObject *route)
{
    if (2 * (k->memo_n + 1) > k->memo_cap) {
        size_t ncap = k->memo_cap ? k->memo_cap * 2 : 1024;
        MemoEnt *nm = (MemoEnt *)PyMem_Calloc(ncap, sizeof(MemoEnt));
        if (nm == NULL) {
            PyErr_NoMemory();
            return -1;
        }
        for (size_t j = 0; j < k->memo_cap; j++) {
            MemoEnt *e = &k->memo[j];
            if (e->a == NULL)
                continue;
            size_t i = memo_hash(e->a, e->b) & (ncap - 1);
            while (nm[i].a != NULL)
                i = (i + 1) & (ncap - 1);
            nm[i] = *e;
        }
        PyMem_Free(k->memo);
        k->memo = nm;
        k->memo_cap = ncap;
    }
    size_t mask = k->memo_cap - 1;
    size_t i = memo_hash(a, b) & mask;
    while (k->memo[i].a != NULL)
        i = (i + 1) & mask;
    Py_INCREF(a);
    Py_INCREF(b);
    Py_INCREF(route);
    k->memo[i].a = a;
    k->memo[i].b = b;
    k->memo[i].route = route;
    k->memo_n += 1;
    return 0;
}


/* -- fast path: stats accumulation ----------------------------------------- */

/* Flush the C-side inject/eject accumulators into the Python
 * StatsCollector (absorb_kernel).  Called before any escape that could
 * observe the collector mid-run (deliver/CALL/divert) and at run end.
 * Kind counts are passed in first-delivery order since the last flush,
 * which is the order the per-packet path would insert them. */
static int
stats_flush(Kernel *k)
{
    if (!k->stats_dirty)
        return 0;
    double t0 = mono_ns();
    PyObject *lat = NULL, *first = NULL, *last = NULL, *ejcnt = NULL;
    PyObject *kinds = NULL, *res = NULL;
    int rc = -1;

    lat = PyList_New(k->a_lat_n);
    if (lat == NULL)
        goto done;
    for (Py_ssize_t i = 0; i < k->a_lat_n; i++) {
        PyObject *f = PyFloat_FromDouble(k->a_lat[i]);
        if (f == NULL)
            goto done;
        PyList_SET_ITEM(lat, i, f);
    }
    first = k->a_has_first ? PyFloat_FromDouble(k->a_first)
                           : Py_NewRef(Py_None);
    last = k->a_has_last ? PyFloat_FromDouble(k->a_last)
                         : Py_NewRef(Py_None);
    if (first == NULL || last == NULL)
        goto done;
    if (k->a_ej > 0) {
        ejcnt = PyList_New((Py_ssize_t)k->NN);
        if (ejcnt == NULL)
            goto done;
        for (long i = 0; i < k->NN; i++) {
            PyObject *v = PyLong_FromLongLong(k->a_ejcnt[i]);
            if (v == NULL)
                goto done;
            PyList_SET_ITEM(ejcnt, (Py_ssize_t)i, v);
        }
    } else {
        ejcnt = Py_NewRef(Py_None);
    }
    kinds = PyDict_New();
    if (kinds == NULL)
        goto done;
    for (int j = 0; j < k->a_nkind_order; j++) {
        int idx = k->a_kind_order[j];
        PyObject *v = PyLong_FromLongLong(k->a_kind_cnt[idx]);
        if (v == NULL)
            goto done;
        int sr = PyDict_SetItem(kinds, k->kinds[idx], v);
        Py_DECREF(v);
        if (sr < 0)
            goto done;
    }
    res = PyObject_CallFunction(
        k->stats_absorb, "LLOLLLLOOOO",
        k->a_inj, k->a_inj_w, first, k->a_ej, k->a_ej_w, k->a_bytes,
        k->a_hops, last, lat, kinds, ejcnt);
    if (res == NULL)
        goto done;
    k->a_inj = k->a_inj_w = k->a_ej = k->a_ej_w = 0;
    k->a_bytes = k->a_hops = 0;
    k->a_has_first = k->a_has_last = 0;
    k->a_lat_n = 0;
    for (int j = 0; j < k->a_nkind_order; j++)
        k->a_kind_cnt[k->a_kind_order[j]] = 0;
    k->a_nkind_order = 0;
    memset(k->a_ejcnt, 0, (size_t)k->NN * sizeof(long long));
    k->stats_dirty = 0;
    rc = 0;
done:
    Py_XDECREF(res);
    Py_XDECREF(kinds);
    Py_XDECREF(ejcnt);
    Py_XDECREF(last);
    Py_XDECREF(first);
    Py_XDECREF(lat);
    k->esc_ns[ESC_FLUSH] += mono_ns() - t0;
    k->esc_counts[ESC_FLUSH] += 1;
    return rc;
}

static int
lat_push(Kernel *k, double v)
{
    if (k->a_lat_n >= k->a_lat_cap) {
        Py_ssize_t ncap = k->a_lat_cap ? k->a_lat_cap * 2 : 4096;
        double *nl = (double *)PyMem_Realloc(k->a_lat,
                                             (size_t)ncap * sizeof(double));
        if (nl == NULL) {
            PyErr_NoMemory();
            return -1;
        }
        k->a_lat = nl;
        k->a_lat_cap = ncap;
    }
    k->a_lat[k->a_lat_n++] = v;
    return 0;
}

/* Re-check the deliver-fast preconditions after an escape that ran
 * arbitrary Python (CALL, divert): a callback may have attached a
 * tracer / delivery listener / message tracker mid-run.  Disable-only:
 * once off it stays off for the rest of the run. */
static int
refresh_deliver_fast(Kernel *k)
{
    if (!k->deliver_fast)
        return 0;
    int ok = 1;
    PyObject *v = PyObject_GetAttr(k->net, str_tracer);
    if (v == NULL)
        return -1;
    if (v != Py_None)
        ok = 0;
    Py_DECREF(v);
    if (ok) {
        v = PyObject_GetAttr(k->net, str_msg_track);
        if (v == NULL)
            return -1;
        if (v != Py_None)
            ok = 0;
        Py_DECREF(v);
    }
    if (ok) {
        v = PyObject_GetAttr(k->net, str_delivery_listeners);
        if (v == NULL)
            return -1;
        Py_ssize_t n = PyObject_Size(v);
        Py_DECREF(v);
        if (n < 0)
            return -1;
        if (n > 0)
            ok = 0;
    }
    if (!ok) {
        if (stats_flush(k) < 0)
            return -1;
        k->deliver_fast = 0;
    }
    return 0;
}

/* -- fast path: route selection --------------------------------------------- */

/* Output-queue depth at router *u*'s port toward *v* (what
 * Network.queue_len returns); -1 with an error for a non-channel. */
static inline long
fp_qlen(Kernel *k, long u, long v)
{
    int32_t gid = -1;
    if (u >= 0 && u < k->NR && v >= 0 && v < k->NR)
        gid = k->row_port[u * k->NR + v];
    if (gid < 0) {
        PyErr_Format(PyExc_IndexError,
                     "kernel: no channel from router %ld to %ld", u, v);
        return -1;
    }
    return k->p_queued[gid];
}

/* Minimal candidate tuple for (sr, dr): memo row hit or cold
 * minimal_fill call (BFS refill under faults; no RNG draws).  New ref. */
static PyObject *
fp_min_candidates(Kernel *k, long sr, long dr)
{
    PyObject *row = PyList_GET_ITEM(k->min_rows, (Py_ssize_t)sr);
    if (row != Py_None) {
        PyObject *cands = PyList_GET_ITEM(row, (Py_ssize_t)dr);
        if (cands != Py_None)
            return Py_NewRef(cands);
    }
    return PyObject_CallFunction(k->minimal_fill, "ll", sr, dr);
}

/* Same for the Valiant leg table. */
static PyObject *
fp_leg_candidates(Kernel *k, long a, long b)
{
    PyObject *row = PyList_GET_ITEM(k->leg_rows, (Py_ssize_t)a);
    if (row != Py_None) {
        PyObject *cands = PyList_GET_ITEM(row, (Py_ssize_t)b);
        if (cands != Py_None)
            return Py_NewRef(cands);
    }
    return PyObject_CallFunction(k->leg_fill, "ll", a, b);
}

/* One leg pick: single candidate or a randbelow draw on *rng*. */
static PyObject *
fp_pick_leg(Kernel *k, long a, long b, CRng *rng)
{
    PyObject *cands = fp_leg_candidates(k, a, b);
    if (cands == NULL)
        return NULL;
    Py_ssize_t n = PyTuple_GET_SIZE(cands);
    PyObject *leg = PyTuple_GET_ITEM(
        cands, n == 1 ? 0 : (Py_ssize_t)mt_randbelow(rng, (long)n));
    Py_INCREF(leg);
    Py_DECREF(cands);
    return leg;
}

/* Rejection-sample an intermediate router != src, dst (the Python
 * loop in IndirectRandomRouting/UGALRouting._pick_intermediate). */
static inline long
fp_pick_intermediate(Kernel *k, long sr, long dr, CRng *rng)
{
    for (;;) {
        long inter = k->pool[mt_randbelow(rng, k->npool)];
        if (inter != sr && inter != dr)
            return inter;
    }
}

/* The composed Route through legs (first, second).  A pointer-keyed C
 * memo sits in front of RouteCache._composed: legs are the cache's own
 * tuples, the memo holds references so their addresses stay unique,
 * and _composed is never invalidated, so a C hit is exactly the entry
 * the value-keyed dict lookup would return.  A C miss falls through to
 * that lookup and then to compose / compose_or_none, so the Python
 * cache sees the same calls it always did.  New ref; Py_None for a
 * VC-illegal pair when *or_none*. */
static PyObject *
fp_compose(Kernel *k, PyObject *first, PyObject *second, int or_none)
{
    PyObject *r = memo_get(k, first, second);
    if (r != NULL)
        return Py_NewRef(r);
    PyObject *key = PyTuple_Pack(2, first, second);
    if (key == NULL)
        return NULL;
    r = PyDict_GetItemWithError(k->composed, key);
    Py_DECREF(key);
    if (r != NULL) {
        Py_INCREF(r);
    } else {
        if (PyErr_Occurred())
            return NULL;
        r = PyObject_CallFunctionObjArgs(
            or_none ? k->compose_or_none : k->compose, first, second, NULL);
        if (r == NULL || r == Py_None)
            return r;
    }
    if (memo_put(k, first, second, r) < 0) {
        Py_DECREF(r);
        return NULL;
    }
    return r;
}

/* First-hop queue length of a route's router tuple (0 for self-pairs). */
static inline long
fp_first_qlen(Kernel *k, PyObject *routers)
{
    if (PyTuple_GET_SIZE(routers) <= 1)
        return 0;
    long r0 = PyLong_AsLong(PyTuple_GET_ITEM(routers, 0));
    long r1 = PyLong_AsLong(PyTuple_GET_ITEM(routers, 1));
    if ((r0 == -1 || r1 == -1) && PyErr_Occurred())
        return -1;
    return fp_qlen(k, r0, r1);
}

/* MinimalRouting.route (compiled): random selection draws on *rng*,
 * best selection scans for the first strict queue-length minimum. */
static PyObject *
fp_route_minimal(Kernel *k, long sr, long dr, CRng *rng, int best)
{
    PyObject *cands = fp_min_candidates(k, sr, dr);
    if (cands == NULL)
        return NULL;
    Py_ssize_t n = PyTuple_GET_SIZE(cands);
    PyObject *route = NULL;
    if (n == 1) {
        route = Py_NewRef(PyTuple_GET_ITEM(cands, 0));
    } else if (!best) {
        route = Py_NewRef(PyTuple_GET_ITEM(
            cands, (Py_ssize_t)mt_randbelow(rng, (long)n)));
    } else {
        long best_q = 0;
        for (Py_ssize_t i = 0; i < n; i++) {
            PyObject *cand = PyTuple_GET_ITEM(cands, i);
            PyObject *routers = PyObject_GetAttr(cand, str_routers);
            long q = routers ? fp_first_qlen(k, routers) : -1;
            Py_XDECREF(routers);
            if (q < 0) {
                Py_XDECREF(route);
                Py_DECREF(cands);
                return NULL;
            }
            if (route == NULL || q < best_q) {
                Py_XSETREF(route, Py_NewRef(cand));
                best_q = q;
            }
        }
    }
    Py_DECREF(cands);
    return route;
}

/* IndirectRandomRouting.route (compiled).  NoRouteError from compose
 * propagates, exactly as in Python. */
static PyObject *
fp_route_inr(Kernel *k, long sr, long dr)
{
    if (sr == dr) {
        PyObject *r = k->self_routes[sr];
        if (r != NULL)
            return Py_NewRef(r);
        PyObject *key = PyLong_FromLong(sr);
        if (key == NULL)
            return NULL;
        r = PyDict_GetItemWithError(k->selfs, key);
        Py_DECREF(key);
        if (r != NULL)
            Py_INCREF(r);
        else if (PyErr_Occurred())
            return NULL;
        else if ((r = PyObject_CallFunction(k->self_route, "l", sr)) == NULL)
            return NULL;
        k->self_routes[sr] = Py_NewRef(r);
        return r;
    }
    long inter = fp_pick_intermediate(k, sr, dr, &k->rng[0]);
    PyObject *first = fp_pick_leg(k, sr, inter, &k->rng[0]);
    if (first == NULL)
        return NULL;
    PyObject *second = fp_pick_leg(k, inter, dr, &k->rng[0]);
    PyObject *route = second ? fp_compose(k, first, second, 0) : NULL;
    Py_DECREF(first);
    Py_XDECREF(second);
    return route;
}

/* UGALRouting.route, local variant with random minimal selection
 * (compiled): minimal pick on rng 0, indirect scoring draws on rng 1,
 * strict cost comparison (ties go minimal), VC-overflow on the winning
 * indirect pair falls back to minimal via compose_or_none. */
static PyObject *
fp_route_ugal(Kernel *k, long sr, long dr)
{
    CRng *rng1 = k->rng_n > 1 ? &k->rng[1] : &k->rng[0];
    PyObject *minimal = fp_route_minimal(k, sr, dr, &k->rng[0], 0);
    if (minimal == NULL)
        return NULL;
    PyObject *routers = PyObject_GetAttr(minimal, str_routers);
    if (routers == NULL) {
        Py_DECREF(minimal);
        return NULL;
    }
    long len_min = (long)PyTuple_GET_SIZE(routers) - 1;
    long q_min = fp_first_qlen(k, routers);
    Py_DECREF(routers);
    if (q_min < 0) {
        Py_DECREF(minimal);
        return NULL;
    }
    if (len_min == 0)
        return minimal; /* self-pair: nothing to adapt */
    if (k->has_thr && (double)q_min < k->thr_cap)
        return minimal;
    double best_cost = (double)q_min;
    PyObject *best_first = NULL, *best_second = NULL;
    for (long it = 0; it < k->nI; it++) {
        long inter = fp_pick_intermediate(k, sr, dr, rng1);
        PyObject *first = fp_pick_leg(k, sr, inter, rng1);
        if (first == NULL)
            goto err;
        PyObject *second = fp_pick_leg(k, inter, dr, rng1);
        if (second == NULL) {
            Py_DECREF(first);
            goto err;
        }
        long q_ind = fp_first_qlen(k, first);
        if (q_ind < 0) {
            Py_DECREF(first);
            Py_DECREF(second);
            goto err;
        }
        double cost;
        if (k->sf_mode) {
            long hops = (long)(PyTuple_GET_SIZE(first) +
                               PyTuple_GET_SIZE(second)) - 2;
            /* Same association as the Python scoring expression so the
             * doubles are bit-identical. */
            cost = (((double)hops / (double)len_min) * k->c_sf) *
                   (double)q_ind;
        } else {
            cost = k->cc * (double)q_ind;
        }
        if (cost < best_cost) {
            best_cost = cost;
            Py_XSETREF(best_first, first);
            Py_XSETREF(best_second, second);
        } else {
            Py_DECREF(first);
            Py_DECREF(second);
        }
    }
    if (best_first == NULL)
        return minimal;
    {
        PyObject *route = fp_compose(k, best_first, best_second, 1);
        Py_DECREF(best_first);
        Py_DECREF(best_second);
        if (route == NULL) {
            Py_DECREF(minimal);
            return NULL;
        }
        if (route == Py_None) {
            Py_DECREF(route);
            return minimal; /* degraded pair: VC overflow -> minimal */
        }
        Py_DECREF(minimal);
        return route;
    }
err:
    Py_XDECREF(best_first);
    Py_XDECREF(best_second);
    Py_DECREF(minimal);
    return NULL;
}


/* -- packet construction ---------------------------------------------------- */

/* Fast path: route in C, fill a slot, accumulate the inject stats.
 * Network.make_packet + StatsCollector.record_inject, golden- and
 * fuzz-gated against them. */
static int32_t
make_fast(Kernel *k, long node, const Desc *d, double t)
{
    if (d->dst < 0 || d->dst >= k->NN) {
        PyErr_Format(PyExc_IndexError,
                     "kernel: destination node %d out of range",
                     (int)d->dst);
        return -1;
    }
    long sr = k->n_rid[node];
    long dr = k->n_rid[d->dst];
    PyObject *route;
    switch (k->route_mode) {
    case 0:
        route = fp_route_minimal(k, sr, dr, &k->rng[0], 0);
        break;
    case 1:
        route = fp_route_minimal(k, sr, dr, NULL, 1);
        break;
    case 2:
        route = fp_route_inr(k, sr, dr);
        break;
    default:
        route = fp_route_ugal(k, sr, dr);
        break;
    }
    if (route == NULL)
        return -1;
    PyObject *ports = PyObject_GetAttr(route, str_ports);
    PyObject *vcs = ports ? PyObject_GetAttr(route, str_vcs) : NULL;
    PyObject *routers = vcs ? PyObject_GetAttr(route, str_routers) : NULL;
    PyObject *kind = routers ? PyObject_GetAttr(route, str_kind) : NULL;
    int32_t si = -1;
    int ki = kind ? kind_index(k, kind) : -1;
    if (ki >= 0)
        si = slot_alloc(k);
    if (si >= 0 &&
        slot_load_path(k, si, ports, k->n_eject[d->dst], vcs, routers) < 0) {
        slot_release(k, si);
        si = -1;
    }
    Py_XDECREF(kind);
    Py_XDECREF(routers);
    Py_XDECREF(vcs);
    Py_XDECREF(ports);
    if (si < 0) {
        Py_DECREF(route);
        return -1;
    }
    Slot *p = &k->slots[si];
    p->route = route; /* steals */
    p->msg_id = Py_NewRef(d->msg_id);
    p->pid = ++k->pid;
    p->src = (int32_t)node;
    p->dst = d->dst;
    p->size = d->size;
    p->gen_time = d->gen;
    p->send_time = t;
    p->kind = ki;

    k->a_inj += 1;
    if (!k->a_has_first) {
        k->a_first = t;
        k->a_has_first = 1;
    }
    if (t >= k->win_start && (!k->win_has_end || t < k->win_end))
        k->a_inj_w += 1;
    k->stats_dirty = 1;
    k->fast_counts[FAST_MAKE] += 1;
    return si;
}

/* Escape: Network.make_packet (checker-wrapped, legacy or unknown
 * routing), then the send time and StatsCollector.record_inject. */
static int32_t
make_escape(Kernel *k, long node, const Desc *d, double t)
{
    double t0 = mono_ns();
    int32_t si = -1;
    PyObject *pkt = NULL, *tf = NULL, *stats = NULL, *r = NULL, *v = NULL;
    PyObject *kind = NULL;
    {
        PyObject *mp = PyObject_GetAttr(k->net, str_make_packet);
        if (mp == NULL)
            goto done;
        pkt = PyObject_CallFunction(mp, "liLOd", node, (int)d->dst, d->size,
                                    d->msg_id, d->gen);
        Py_DECREF(mp);
    }
    if (pkt == NULL)
        goto done;
    tf = PyFloat_FromDouble(t);
    if (tf == NULL || PyObject_SetAttr(pkt, str_send_time, tf) < 0)
        goto done;
    stats = PyObject_GetAttr(k->net, str_stats);
    if (stats == NULL)
        goto done;
    r = PyObject_CallMethodOneArg(stats, str_record_inject, pkt);
    if (r == NULL)
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
    if (slot_load_packet(k, si, pkt) < 0) {
        slot_release(k, si);
        si = -1;
        goto done;
    }
    Slot *p = &k->slots[si];
    p->pkt = Py_NewRef(pkt);
    p->msg_id = Py_NewRef(d->msg_id);
    p->pid = pid;
    p->src = (int32_t)node;
    p->dst = d->dst;
    p->size = d->size;
    p->gen_time = d->gen;
    p->send_time = t;
    p->kind = ki;
done:
    Py_XDECREF(kind);
    Py_XDECREF(v);
    Py_XDECREF(r);
    Py_XDECREF(stats);
    Py_XDECREF(tf);
    Py_XDECREF(pkt);
    if (k->running) { /* sends made outside run() are not escapes */
        k->esc_ns[ESC_MAKE] += mono_ns() - t0;
        k->esc_counts[ESC_MAKE] += 1;
    }
    return si;
}

/* Parse one (dst, size, msg_id) descriptor pulled from a NIC source. */
static int
desc_from_item(PyObject *item, double t, Desc *d)
{
    PyObject *fast = PySequence_Fast(item,
                                     "kernel: NIC source yielded a non-sequence");
    if (fast == NULL)
        return -1;
    if (PySequence_Fast_GET_SIZE(fast) != 3) {
        Py_DECREF(fast);
        PyErr_SetString(PyExc_ValueError,
                        "kernel: NIC source descriptor is not a 3-tuple");
        return -1;
    }
    long dst = PyLong_AsLong(PySequence_Fast_GET_ITEM(fast, 0));
    long long size = PyLong_AsLongLong(PySequence_Fast_GET_ITEM(fast, 1));
    if ((dst == -1 || size == -1) && PyErr_Occurred()) {
        Py_DECREF(fast);
        return -1;
    }
    d->dst = (int32_t)dst;
    d->size = size;
    d->msg_id = Py_NewRef(PySequence_Fast_GET_ITEM(fast, 2));
    d->gen = t;
    Py_DECREF(fast);
    return 0;
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
        if (q->len || k->n_src[node] != NULL) {
            k->n_stalls[node] += 1;
            if (arr->len) {
                CKey h = arr->buf[arr->head];
                if (kpush(k, h.t, h.s, OP_NWAKE, node, 0, 0) < 0)
                    return -1;
            }
        }
        return 0;
    }
    Desc d;
    if (q->len) {
        d = dring_pop(q); /* takes over the msg_id reference */
        k->n_qp[node] -= 1;
    } else {
        PyObject *src = k->n_src[node];
        if (src == NULL)
            return 0;
        Py_INCREF(src);
        PyObject *item = PyIter_Next(src);
        Py_DECREF(src);
        if (item == NULL) {
            if (PyErr_Occurred())
                return -1;
            Py_CLEAR(k->n_src[node]); /* source exhausted */
            return 0;
        }
        int pr = desc_from_item(item, t, &d);
        Py_DECREF(item);
        if (pr < 0)
            return -1;
    }
    int32_t si = (k->running && k->route_mode >= 0)
                     ? make_fast(k, node, &d, t)
                     : make_escape(k, node, &d, t);
    Py_DECREF(d.msg_id);
    if (si < 0)
        return -1;
    k->n_cred[node] = cred - 1;
    k->seq += 1; /* reserved: the elided NIC link-free event */
    double bt = t + k->SER;
    long long bs = k->seq;
    k->n_busy_t[node] = bt;
    k->n_busy_s[node] = bs;
    k->seq += 1;
    if (kpush(k, t + k->SL, k->seq, OP_RECV, k->n_in[node], 0, si) < 0)
        return -1;
    if (q->len || k->n_src[node] != NULL) {
        /* Work already waiting: the link-free retry would send, so
         * wake at its reserved key. */
        if (kpush(k, bt, bs, OP_NWAKE, node, 0, 0) < 0)
            return -1;
        k->n_wake[node] = 1;
    } else {
        k->n_wake[node] = 0;
    }
    return 0;
}

/* Queue a send at the current time (NIC.submit); a busy NIC gets at
 * most one wake at its reserved link-free key. */
static int
nic_enqueue(Kernel *k, long node, int32_t dst, long long size,
            PyObject *msg_id)
{
    double t = k->now;
    long long s = k->cs;
    Desc d = {t, size, Py_NewRef(msg_id), dst};
    if (dring_push(&k->n_q[node], d) < 0) {
        Py_DECREF(msg_id);
        return -1;
    }
    k->n_qp[node] += 1;
    double bt = k->n_busy_t[node];
    long long bs = k->n_busy_s[node];
    if (is_busy(t, s, bt, bs)) {
        if (!k->n_wake[node]) {
            if (kpush(k, bt, bs, OP_NWAKE, node, 0, 0) < 0)
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
            if (kpush(k, at, k->seq, OP_PWAKE, upp, 0, 0) < 0)
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
            if (k->n_cred[upn] == 0 &&
                (k->n_q[upn].len || k->n_src[upn] != NULL)) {
                if (kpush(k, at, k->seq, OP_NWAKE, upn, 0, 0) < 0)
                    return -1;
            }
        }
    }
    k->seq += 1;
    Slot *p = &k->slots[si];
    long pv = gid * k->V + S_VC(p, p->hop);
    return kpush(k, t + k->SWITCH, k->seq, OP_ENTER, pv, si, gid);
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
        Slot *p = &k->slots[si];
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
        Slot *p = &k->slots[q->buf[q->head]];
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
            if (kpush(k, t + k->SL, k->seq, OP_DELIVER, 0, 0, si) < 0)
                return -1;
        } else {
            k->slots[si].hop += 1;
            if (kpush(k, t + k->SL, k->seq, OP_RECV, din, vc, si) < 0)
                return -1;
        }
        if (k->p_oqtot[gid] > 0) {
            /* More output-queue work: the link-free retry would
             * transmit, so wake at its reserved key. */
            if (kpush(k, bt, bs, OP_PWAKE, gid, 0, 0) < 0)
                return -1;
            k->p_wake[gid] = 1;
        } else {
            k->p_wake[gid] = 0;
        }
        return admit_pending(k, gid, vc, t, s);
    }
    if (have_best) /* idle, every queued VC credit-blocked */
        return kpush(k, best_t, best_s, OP_PWAKE, gid, 0, 0);
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
            if (kpush(k, bt, bs, OP_PWAKE, gid, 0, 0) < 0)
                return -1;
            k->p_wake[gid] = 1;
        }
        return 0;
    }
    return try_transmit(k, gid, t, s);
}

/* Hand a packet headed for dead port gid to the fault manager's policy
 * (``divert(pkt, hop)``: False drops it, True means its route was
 * rewritten from the current hop).  Returns 1 rerouted (*npv / *ngid
 * set), 0 dropped (slot released), -1 on error. */
static int
divert_packet(Kernel *k, PyObject *divert, int32_t si, long gid,
              long *npv, long *ngid)
{
    PyObject *pkt = slot_packet(k, si);
    if (pkt == NULL)
        return -1;
    Py_INCREF(pkt);
    PyObject *res = PyObject_CallFunction(divert, "Oi", pkt,
                                          (int)k->slots[si].hop);
    int keep = res ? PyObject_IsTrue(res) : -1;
    Py_XDECREF(res);
    if (keep > 0 && slot_load_packet(k, si, pkt) < 0)
        keep = -1;
    Py_DECREF(pkt);
    if (keep <= 0) {
        if (keep == 0)
            slot_release(k, si);
        return keep;
    }
    Slot *p = &k->slots[si];
    Py_CLEAR(p->route); /* the rewritten Packet is authoritative now */
    p = &k->slots[si];
    *ngid = k->p_off[k->p_rid[gid]] + S_PORT(p, p->hop);
    *npv = *ngid * k->V + S_VC(p, p->hop);
    if (*ngid < 0 || *ngid >= k->NP || S_VC(p, p->hop) >= k->V) {
        PyErr_SetString(PyExc_RuntimeError,
                        "kernel: divert produced an out-of-range port");
        return -1;
    }
    return 1;
}

/* -- opcode handlers ------------------------------------------------------- */

static int
do_recv(Kernel *k, double t, long long s, long a, long b, int32_t si)
{
    Slot *p = &k->slots[si];
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
        if (k->fm_divert == NULL) {
            PyErr_SetString(PyExc_RuntimeError,
                            "dead port entered with no fault manager");
            return -1;
        }
        if (k->stats_dirty && stats_flush(k) < 0)
            return -1;
        double t0 = mono_ns();
        long npv = 0, ngid = 0;
        int kept = divert_packet(k, k->fm_divert, si, gid, &npv, &ngid);
        k->esc_ns[ESC_DIVERT] += mono_ns() - t0;
        k->esc_counts[ESC_DIVERT] += 1;
        if (kept < 0)
            return -1;
        k->pv_occ[pv] -= 1;
        k->p_queued[gid] -= 1;
        if (kept) {
            k->pv_occ[npv] += 1;
            k->p_queued[ngid] += 1;
        }
        if (refresh_deliver_fast(k) < 0 ||
            admit_pending(k, gid, pv - gid * k->V, t, s) < 0)
            return -1;
        if (!kept)
            return 0;
        pv = npv;
        gid = ngid;
    }
    return enter_oq(k, pv, si, gid, t, s);
}

static int
do_gen(Kernel *k, double t, long long s, long node)
{
    int32_t i = k->g_i[node];
    if (i >= k->g_n[node]) {
        PyErr_SetString(PyExc_RuntimeError, "kernel: GEN past stream end");
        return -1;
    }
    k->g_i[node] = i + 1;
    int32_t dst = k->g_d[node][i];
    if (dst == -2) /* past-horizon sentinel */
        return 0;
    if (i + 1 >= k->g_n[node]) {
        PyErr_SetString(PyExc_RuntimeError, "kernel: stream without sentinel");
        return -1;
    }
    if (dst >= 0) {
        /* Inlined NIC.submit(dst, packet_bytes). */
        Desc d = {t, k->pkt_bytes, Py_NewRef(Py_None), dst};
        if (dring_push(&k->n_q[node], d) < 0) {
            Py_DECREF(Py_None);
            return -1;
        }
        k->n_qp[node] += 1;
        double bt = k->n_busy_t[node];
        long long bs = k->n_busy_s[node];
        if (is_busy(t, s, bt, bs)) {
            if (!k->n_wake[node]) {
                if (kpush(k, bt, bs, OP_NWAKE, node, 0, 0) < 0)
                    return -1;
                k->n_wake[node] = 1;
            }
        } else if (nic_send(k, node, t, s) < 0) {
            return -1;
        }
    }
    k->seq += 1;
    return kpush(k, k->g_t[node][i + 1], k->seq, OP_GEN, node, 0, 0);
}

static int
do_deliver(Kernel *k, double t, int32_t si)
{
    if (k->deliver_fast) {
        /* Network.deliver + StatsCollector.record_eject, in C. */
        Slot *p = &k->slots[si];
        if (p->pkt != NULL) {
            PyObject *tf = PyFloat_FromDouble(t);
            if (tf == NULL)
                return -1;
            int sr = PyObject_SetAttr(p->pkt, str_eject_time, tf);
            Py_DECREF(tf);
            if (sr < 0)
                return -1;
            p = &k->slots[si];
        }
        k->a_ej += 1;
        k->a_last = t; /* event times are monotone: running max */
        k->a_has_last = 1;
        k->a_ejcnt[p->dst] += 1;
        if (t >= k->win_start && (!k->win_has_end || t < k->win_end)) {
            k->a_ej_w += 1;
            k->a_bytes += p->size;
            if (lat_push(k, t - p->gen_time) < 0)
                return -1;
            p = &k->slots[si];
            if (k->a_kind_cnt[p->kind]++ == 0)
                k->a_kind_order[k->a_nkind_order++] = p->kind;
            k->a_hops += p->nhops;
        }
        k->stats_dirty = 1;
        k->fast_counts[FAST_DELIVER] += 1;
        slot_release(k, si);
        return 0;
    }
    /* Escape: flush the accumulators first so listeners and wrapped
     * deliver callbacks observe a coherent StatsCollector. */
    if (k->stats_dirty && stats_flush(k) < 0)
        return -1;
    double t0 = mono_ns();
    PyObject *pkt = slot_packet(k, si);
    PyObject *r = NULL;
    if (pkt != NULL) {
        /* The packet has left the network: recycle its slot first, so
         * observers (and the checker's audits) see it delivered. */
        Py_INCREF(pkt);
        slot_release(k, si);
        r = PyObject_CallOneArg(k->deliver, pkt);
        Py_DECREF(pkt);
    }
    k->esc_ns[ESC_DELIVER] += mono_ns() - t0;
    k->esc_counts[ESC_DELIVER] += 1;
    if (r == NULL)
        return -1;
    Py_DECREF(r);
    return 0;
}

static int
do_call(Kernel *k, PyObject *fn, PyObject *args)
{
    /* Caller owns fn/args and decrefs them after we return. */
    if (k->stats_dirty && stats_flush(k) < 0)
        return -1;
    double t0 = mono_ns();
    PyObject *r = PyObject_Call(fn, args, NULL);
    k->esc_ns[ESC_CALL] += mono_ns() - t0;
    k->esc_counts[ESC_CALL] += 1;
    if (r == NULL)
        return -1;
    Py_DECREF(r);
    return refresh_deliver_fast(k);
}


/* -- per-run bindings -------------------------------------------------------- */

/* Drop every per-run reference (safe on a partially bound kernel). */
static void
unbind_refs(Kernel *k)
{
    Py_CLEAR(k->deliver);
    Py_CLEAR(k->fm_divert);
    Py_CLEAR(k->min_rows);
    Py_CLEAR(k->leg_rows);
    Py_CLEAR(k->composed);
    Py_CLEAR(k->selfs);
    Py_CLEAR(k->minimal_fill);
    Py_CLEAR(k->leg_fill);
    Py_CLEAR(k->compose);
    Py_CLEAR(k->compose_or_none);
    Py_CLEAR(k->self_route);
    Py_CLEAR(k->stats_absorb);
    PyMem_Free(k->pool);
    k->pool = NULL;
    k->npool = 0;
    for (int i = 0; i < k->rng_n; i++) /* imported, never made resident */
        crng_drop(&k->rng[i]);
    k->rng_n = 0;
    k->route_mode = -1;
    k->deliver_fast = 0;
}

/* End residency: push RNG streams + packet-id counter back to Python.
 * Always drops the references, even if an export step fails. */
static int
export_resident(Kernel *k)
{
    if (!k->resident)
        return 0;
    int rc = 0;
    for (int i = 0; i < k->rng_n; i++) {
        if (k->rng[i].obj != NULL && crng_export(&k->rng[i]) < 0)
            rc = -1;
        crng_drop(&k->rng[i]);
    }
    k->rng_n = 0;
    PyObject *v = PyLong_FromLongLong(k->pid);
    if (v == NULL || PyObject_SetAttr(k->net, str_net_pid, v) < 0)
        rc = -1;
    Py_XDECREF(v);
    k->resident = 0;
    return rc;
}

static int
fp_long(PyObject *fp, const char *name, long *out)
{
    PyObject *v = PyObject_GetAttrString(fp, name);
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
    PyObject *v = PyObject_GetAttrString(fp, name);
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

/* Bind net.deliver, the fault manager's divert and the fast-path spec
 * (a namespace from KernelEngine._fastpath_spec, or None).  Route mode
 * makes the routing RNG streams and Network._pid resident in C. */
static int
bind_run(Kernel *k, PyObject *fp)
{
    k->route_mode = -1;
    k->deliver_fast = 0;
    k->deliver = PyObject_GetAttr(k->net, str_deliver);
    if (k->deliver == NULL)
        return -1;
    PyObject *fm = PyObject_GetAttr(k->net, str_fault_manager);
    if (fm == NULL)
        return -1;
    if (fm != Py_None)
        k->fm_divert = PyObject_GetAttr(fm, str_divert_packet);
    Py_DECREF(fm);
    if (fm != Py_None && k->fm_divert == NULL)
        return -1;
    if (fp == Py_None)
        return 0;

    long mode, dfast, sf, nI;
    if (fp_long(fp, "route_mode", &mode) < 0 ||
        fp_long(fp, "deliver_fast", &dfast) < 0)
        return -1;
    if (mode < 0 && !dfast)
        return 0;
    int has_thr = 0;
    if ((k->stats_absorb = PyObject_GetAttrString(fp, "stats_absorb")) == NULL ||
        fp_opt_double(fp, "win_start", &k->win_start, &has_thr) < 0 ||
        fp_opt_double(fp, "win_end", &k->win_end, &k->win_has_end) < 0)
        return -1;
    k->deliver_fast = dfast ? 1 : 0;
    if (mode < 0)
        return 0;

#define FPGETO(field, name)                                               \
    if ((k->field = PyObject_GetAttrString(fp, name)) == NULL)                            \
        return -1;
    FPGETO(min_rows, "min_rows")
    FPGETO(leg_rows, "leg_rows")
    FPGETO(composed, "composed")
    FPGETO(selfs, "selfs")
    FPGETO(minimal_fill, "minimal_fill")
    FPGETO(leg_fill, "leg_fill")
    FPGETO(compose, "compose")
    FPGETO(compose_or_none, "compose_or_none")
    FPGETO(self_route, "self_route")
#undef FPGETO
    if (fp_long(fp, "n_indirect", &nI) < 0 || fp_long(fp, "sf_mode", &sf) < 0)
        return -1;
    k->nI = nI;
    k->sf_mode = (int)sf;
    int has = 0;
    if (fp_opt_double(fp, "c", &k->cc, &has) < 0 ||
        fp_opt_double(fp, "c_sf", &k->c_sf, &has) < 0 ||
        fp_opt_double(fp, "thr_cap", &k->thr_cap, &k->has_thr) < 0)
        return -1;
    PyObject *pool = PyObject_GetAttrString(fp, "pool");
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
            k->pool[i] = (int32_t)v;
        }
        k->npool = (long)n;
        Py_DECREF(seq);
    } else {
        Py_DECREF(pool);
    }

    /* RNG + packet-id residency. */
    PyObject *rngs = PyObject_GetAttrString(fp, "rngs");
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
    PyObject *v = PyObject_GetAttr(k->net, str_net_pid);
    if (v == NULL)
        return -1;
    k->pid = PyLong_AsLongLong(v);
    Py_DECREF(v);
    if (k->pid == -1 && PyErr_Occurred())
        return -1;
    k->resident = 1;
    k->route_mode = (int)mode;
    return 0;
}

/* -- Kernel methods ---------------------------------------------------------- */

static PyObject *
Kernel_push(Kernel *k, PyObject *args)
{
    double t;
    long long seq;
    int op;
    PyObject *a, *b, *cc;
    if (!PyArg_ParseTuple(args, "dLiOOO", &t, &seq, &op, &a, &b, &cc))
        return NULL;
    if (op < 0 || op >= OP_COUNT) {
        PyErr_Format(PyExc_ValueError, "kernel: unknown opcode %d", op);
        return NULL;
    }
    Event ev = {t, seq, op, 0, 0, 0, NULL, NULL};
    if (op == OP_CALL) {
        if (!PyCallable_Check(a) || !PyTuple_Check(b)) {
            PyErr_SetString(PyExc_TypeError,
                            "kernel: CALL needs a callable and an args tuple");
            return NULL;
        }
        ev.fn = Py_NewRef(a);
        ev.args = Py_NewRef(b);
    } else {
        ev.a = PyLong_AsLong(a);
        ev.b = PyLong_AsLong(b);
        ev.c = PyLong_AsLong(cc);
        if (PyErr_Occurred())
            return NULL;
        /* Index fields the handlers use unchecked (slot ids are the
         * kernel's own and are not checked here). */
        long lim_a = op == OP_RECV ? k->NI : op == OP_ENTER ? k->NP * k->V
                     : op == OP_PWAKE ? k->NP : op == OP_DELIVER ? 1 : k->NN;
        int ok = ev.a >= 0 && ev.a < lim_a;
        if (op == OP_RECV)
            ok = ok && ev.b >= 0 && ev.b < k->V;
        if (op == OP_ENTER)
            ok = ok && ev.c >= 0 && ev.c < k->NP;
        if (!k->built || !ok) {
            PyErr_Format(PyExc_ValueError,
                         "kernel: event fields out of range for opcode %d", op);
            return NULL;
        }
    }
    if (heap_push_ev(k, ev) < 0)
        return NULL;
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
        while (k->size) {
            if (k->heap[0].t > cap || rem == 0)
                break;
            Event ev = heap_pop_ev(k);
            double t = ev.t;
            k->now = t;
            k->cs = ev.seq;
            rem -= 1;
            executed += 1;
            k->executed += 1;
            k->op_counts[ev.op] += 1;
            if ((executed & 0x3FFF) == 0 && PyErr_CheckSignals() < 0) {
                Py_XDECREF(ev.fn);
                Py_XDECREF(ev.args);
                failed = 1;
                break;
            }
            int rc;
            switch (ev.op) {
            case OP_RECV:
                rc = do_recv(k, t, ev.seq, ev.a, ev.b, (int32_t)ev.c);
                break;
            case OP_ENTER:
                rc = do_enter(k, t, ev.seq, ev.a, (int32_t)ev.b, ev.c);
                break;
            case OP_PWAKE:
                rc = is_busy(t, ev.seq, k->p_busy_t[ev.a], k->p_busy_s[ev.a])
                         ? 0 : try_transmit(k, ev.a, t, ev.seq);
                break;
            case OP_DELIVER:
                rc = do_deliver(k, t, (int32_t)ev.c);
                break;
            case OP_NWAKE:
                rc = is_busy(t, ev.seq, k->n_busy_t[ev.a], k->n_busy_s[ev.a])
                         ? 0 : nic_send(k, ev.a, t, ev.seq);
                break;
            case OP_GEN:
                rc = do_gen(k, t, ev.seq, ev.a);
                break;
            default: /* OP_CALL */
                rc = do_call(k, ev.fn, ev.args);
                Py_DECREF(ev.fn);
                Py_DECREF(ev.args);
                break;
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

    /* Drain the accumulators and end residency even when aborting, so
     * the StatsCollector, routing RNGs and Network._pid stay coherent. */
    PyObject *exc_type = NULL, *exc_val = NULL, *exc_tb = NULL;
    if (failed)
        PyErr_Fetch(&exc_type, &exc_val, &exc_tb);
    if (k->stats_absorb != NULL && stats_flush(k) < 0)
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


static void
kernel_drop_events(Kernel *k)
{
    while (k->size > 0) {
        Event *ev = &k->heap[--k->size];
        Py_CLEAR(ev->fn);
        Py_CLEAR(ev->args);
    }
}

static PyObject *
Kernel_clear(Kernel *k, PyObject *Py_UNUSED(ignored))
{
    kernel_drop_events(k);
    memset(k->op_counts, 0, sizeof(k->op_counts));
    memset(k->esc_counts, 0, sizeof(k->esc_counts));
    memset(k->esc_ns, 0, sizeof(k->esc_ns));
    memset(k->fast_counts, 0, sizeof(k->fast_counts));
    k->run_ns = 0.0;
    k->runs = 0;
    k->now = 0.0;
    k->seq = k->cs = k->executed = 0;
    Py_RETURN_NONE;
}

static PyObject *
Kernel_pending(Kernel *k, PyObject *Py_UNUSED(ignored))
{
    return PyLong_FromSsize_t(k->size);
}

static PyObject *
Kernel_peek_time(Kernel *k, PyObject *Py_UNUSED(ignored))
{
    if (k->size == 0)
        Py_RETURN_NONE;
    return PyFloat_FromDouble(k->heap[0].t);
}

/* All queued event records as (t, seq, op, a, b, c) tuples, in no
 * particular order; CALL records carry (fn, args) as (a, b). */
static PyObject *
Kernel_events(Kernel *k, PyObject *Py_UNUSED(ignored))
{
    PyObject *out = PyList_New(k->size);
    if (out == NULL)
        return NULL;
    for (Py_ssize_t i = 0; i < k->size; i++) {
        Event *ev = &k->heap[i];
        PyObject *rec;
        if (ev->op == OP_CALL)
            rec = Py_BuildValue("(dLiOOl)", ev->t, ev->seq, ev->op,
                                ev->fn, ev->args, (long)0);
        else
            rec = Py_BuildValue("(dLilll)", ev->t, ev->seq, ev->op,
                                ev->a, ev->b, ev->c);
        if (rec == NULL) {
            Py_DECREF(out);
            return NULL;
        }
        PyList_SET_ITEM(out, i, rec);
    }
    return out;
}

static PyObject *
Kernel_stats(Kernel *k, PyObject *Py_UNUSED(ignored))
{
    static const char *op_names[OP_COUNT] = {
        "RECV", "ENTER", "PWAKE", "DELIVER", "NWAKE", "GEN", "CALL"};
    static const char *esc_names[ESC_N] = {
        "make_packet", "deliver", "call", "fault_divert", "stats_flush"};
    static const char *fast_names[FAST_N] = {"make_packet", "deliver"};
    PyObject *ops = PyDict_New();
    PyObject *escs = PyDict_New();
    PyObject *fasts = PyDict_New();
    if (ops == NULL || escs == NULL || fasts == NULL)
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
    return Py_BuildValue("{s:K,s:N,s:N,s:N,s:d,s:d,s:K}",
                         "events", total, "op_counts", ops, "escapes", escs,
                         "fast_path", fasts, "run_ns", k->run_ns,
                         "escape_ns", esc_total_ns, "runs", k->runs);
fail:
    Py_XDECREF(ops);
    Py_XDECREF(escs);
    Py_XDECREF(fasts);
    return NULL;
}

/* Memory accounting: packet slots and credit-FIFO high-water marks. */
static PyObject *
Kernel_memory(Kernel *k, PyObject *Py_UNUSED(ignored))
{
    return Py_BuildValue(
        "{s:i,s:i,s:i,s:i,s:l,s:i,s:l}",
        "slots_live", (int)k->live, "slots_hwm", (int)k->hwm,
        "slots_allocated", (int)k->nslots,
        "credit_fifo_hwm", (int)k->arr_hwm, "vc_capacity", k->VC_CAP,
        "nic_credit_fifo_hwm", (int)k->narr_hwm, "nic_capacity", k->NIC_CAP);
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

/* nic_submit(node, dst, size, msg_id): NIC.submit at the current time. */
static PyObject *
Kernel_nic_submit(Kernel *k, PyObject *const *args, Py_ssize_t nargs)
{
    long node;
    if (nargs != 4) {
        PyErr_SetString(PyExc_TypeError, "nic_submit takes 4 arguments");
        return NULL;
    }
    if (node_arg(k, args[0], &node) < 0)
        return NULL;
    long dst = PyLong_AsLong(args[1]);
    long long size = PyLong_AsLongLong(args[2]);
    if ((dst == -1 || size == -1) && PyErr_Occurred())
        return NULL;
    if (nic_enqueue(k, node, (int32_t)dst, size, args[3]) < 0)
        return NULL;
    Py_RETURN_NONE;
}

/* nic_set_source(node, iterator): attach a pull source of descriptors. */
static PyObject *
Kernel_nic_set_source(Kernel *k, PyObject *args)
{
    PyObject *nodeo, *src;
    long node;
    if (!PyArg_ParseTuple(args, "OO", &nodeo, &src))
        return NULL;
    if (node_arg(k, nodeo, &node) < 0)
        return NULL;
    if (src != Py_None && !PyIter_Check(src)) {
        PyErr_SetString(PyExc_TypeError, "kernel: NIC source is not an iterator");
        return NULL;
    }
    Py_XSETREF(k->n_src[node], src == Py_None ? NULL : Py_NewRef(src));
    double t = k->now;
    long long s = k->cs;
    double bt = k->n_busy_t[node];
    long long bs = k->n_busy_s[node];
    if (is_busy(t, s, bt, bs)) {
        if (!k->n_wake[node]) {
            if (kpush(k, bt, bs, OP_NWAKE, node, 0, 0) < 0)
                return NULL;
            k->n_wake[node] = 1;
        }
    } else if (nic_send(k, node, t, s) < 0) {
        return NULL;
    }
    Py_RETURN_NONE;
}

/* nic_info(node) -> (queued_packets, credit_stalls, credits, source). */
static PyObject *
Kernel_nic_info(Kernel *k, PyObject *nodeo)
{
    long node;
    if (node_arg(k, nodeo, &node) < 0)
        return NULL;
    PyObject *src = k->n_src[node] ? k->n_src[node] : Py_None;
    return Py_BuildValue("(iLiO)", (int)k->n_qp[node], k->n_stalls[node],
                         (int)k->n_cred[node], src);
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

/* set_stream(node, times, dsts): one node's pregenerated injections
 * (dst -1: no packet this draw, -2: the past-horizon sentinel). */
static PyObject *
Kernel_set_stream(Kernel *k, PyObject *args)
{
    PyObject *nodeo, *times, *dsts;
    long node;
    if (!PyArg_ParseTuple(args, "OOO", &nodeo, &times, &dsts))
        return NULL;
    if (node_arg(k, nodeo, &node) < 0)
        return NULL;
    PyObject *ft = PySequence_Fast(times, "times must be a sequence");
    PyObject *fd = ft ? PySequence_Fast(dsts, "dsts must be a sequence") : NULL;
    if (fd == NULL) {
        Py_XDECREF(ft);
        return NULL;
    }
    Py_ssize_t n = PySequence_Fast_GET_SIZE(ft);
    double *gt = NULL;
    int32_t *gd = NULL;
    if (n < 1 || n != PySequence_Fast_GET_SIZE(fd) || n > INT32_MAX) {
        PyErr_SetString(PyExc_ValueError,
                        "kernel: stream times/dsts must be equal, non-empty");
        goto fail;
    }
    gt = (double *)PyMem_Malloc((size_t)n * sizeof(double));
    gd = (int32_t *)PyMem_Malloc((size_t)n * sizeof(int32_t));
    if (gt == NULL || gd == NULL) {
        PyErr_NoMemory();
        goto fail;
    }
    for (Py_ssize_t i = 0; i < n; i++) {
        gt[i] = PyFloat_AsDouble(PySequence_Fast_GET_ITEM(ft, i));
        long d = PyLong_AsLong(PySequence_Fast_GET_ITEM(fd, i));
        if (PyErr_Occurred())
            goto fail;
        if (d < -2 || d >= k->NN) {
            PyErr_Format(PyExc_ValueError, "kernel: stream dst %ld", d);
            goto fail;
        }
        gd[i] = (int32_t)d;
    }
    PyMem_Free(k->g_t[node]);
    PyMem_Free(k->g_d[node]);
    k->g_t[node] = gt;
    k->g_d[node] = gd;
    k->g_i[node] = 0;
    k->g_n[node] = (int32_t)n;
    Py_DECREF(ft);
    Py_DECREF(fd);
    Py_RETURN_NONE;
fail:
    PyMem_Free(gt);
    PyMem_Free(gd);
    Py_DECREF(ft);
    Py_DECREF(fd);
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
    k->p_dead[gid] = (uint8_t)flag;
    Py_RETURN_NONE;
}

static int
cmp_long(const void *a, const void *b)
{
    long x = *(const long *)a, y = *(const long *)b;
    return (x > y) - (x < y);
}

/* drain_port(gid, divert): fail-time drain of a dead port's output
 * queues at the current event key, mirroring the object backend's
 * drain.  Every queued packet goes through ``divert(pkt, hop)`` (False
 * drops it, True means its route was rewritten) and a rerouted one
 * enters the sibling queue its new route names (waking the port at its
 * link-free key if it is transmitting); then the parked
 * inputs are re-admitted VC by VC, and each port that received packets
 * gets one PWAKE at the current time, in port order, each consuming a
 * sequence number. */
static PyObject *
Kernel_drain_port(Kernel *k, PyObject *args)
{
    PyObject *gido, *divert;
    long gid;
    if (!PyArg_ParseTuple(args, "OO", &gido, &divert))
        return NULL;
    if (port_arg(k, gido, &gid) < 0)
        return NULL;
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
            int kept = divert_packet(k, divert, si, gid, &npv, &ngid);
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
                if (kpush(k, k->p_busy_t[ngid], k->p_busy_s[ngid], OP_PWAKE,
                          ngid, 0, 0) < 0)
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
        if (kpush(k, t, k->seq, OP_PWAKE, moved[i], 0, 0) < 0)
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

/* -- read-only views ---------------------------------------------------------- */

typedef struct {
    PyObject_HEAD
    PyObject *owner; /* the Kernel keeping the memory alive */
    void *ptr;
    Py_ssize_t n, itemsize;
    const char *fmt;
} KView;

static PyTypeObject KViewType;

static int
KView_getbuffer(KView *v, Py_buffer *view, int flags)
{
    if (flags & PyBUF_WRITABLE) {
        PyErr_SetString(PyExc_BufferError, "kernel state views are read-only");
        view->obj = NULL;
        return -1;
    }
    view->buf = v->ptr;
    view->obj = Py_NewRef((PyObject *)v);
    view->len = v->n * v->itemsize;
    view->readonly = 1;
    view->itemsize = v->itemsize;
    view->format = (flags & PyBUF_FORMAT) ? (char *)v->fmt : NULL;
    view->ndim = 1;
    view->shape = (flags & PyBUF_ND) ? &v->n : NULL;
    view->strides = (flags & PyBUF_STRIDES) ? &v->itemsize : NULL;
    view->suboffsets = NULL;
    view->internal = NULL;
    return 0;
}

static int
KView_traverse(KView *v, visitproc visit, void *arg)
{
    Py_VISIT(v->owner);
    return 0;
}

static int
KView_clear(KView *v)
{
    Py_CLEAR(v->owner);
    v->ptr = NULL;
    v->n = 0;
    return 0;
}

static void
KView_dealloc(KView *v)
{
    PyObject_GC_UnTrack(v);
    KView_clear(v);
    Py_TYPE(v)->tp_free((PyObject *)v);
}

static PyBufferProcs KView_as_buffer = {
    (getbufferproc)KView_getbuffer, NULL};

static PyTypeObject KViewType = {
    PyVarObject_HEAD_INIT(NULL, 0)
    .tp_name = "repro.sim.vec._kernel.StateView",
    .tp_basicsize = sizeof(KView),
    .tp_dealloc = (destructor)KView_dealloc,
    .tp_as_buffer = &KView_as_buffer,
    .tp_flags = Py_TPFLAGS_DEFAULT | Py_TPFLAGS_HAVE_GC,
    .tp_doc = "Read-only buffer over one kernel state array.",
    .tp_traverse = (traverseproc)KView_traverse,
    .tp_clear = (inquiry)KView_clear,
};

/* view(name): a live read-only buffer over one per-port, per-VC or
 * per-NIC counter array (memoryview / numpy.frombuffer read it). */
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
        void *ptr;
        long n;
        Py_ssize_t size;
        const char *fmt;
    } tab[] = {
        {"p_sent", k->p_sent, k->NP, 8, "q"},
        {"p_queued", k->p_queued, k->NP, 4, "i"},
        {"pv_occ", k->pv_occ, NPV, 4, "i"},
        {"pv_cred", k->pv_cred, NPV, 4, "i"},
        {"n_cred", k->n_cred, k->NN, 4, "i"},
    };
    for (size_t i = 0; i < sizeof(tab) / sizeof(tab[0]); i++) {
        if (strcmp(tab[i].name, name) != 0)
            continue;
        KView *v = PyObject_GC_New(KView, &KViewType);
        if (v == NULL)
            return NULL;
        v->owner = Py_NewRef((PyObject *)k);
        v->ptr = tab[i].ptr;
        v->n = tab[i].n;
        v->itemsize = tab[i].size;
        v->fmt = tab[i].fmt;
        PyObject_GC_Track(v);
        return (PyObject *)v;
    }
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
    if (v < 0 || v >= k->nslots ||
        (k->slots[v].route == NULL && k->slots[v].pkt == NULL)) {
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
    Slot *p = &k->slots[si];
    return Py_BuildValue("(ii)", (int)p->hop, (int)S_PORT(p, p->hop));
}


/* -- construction from the SoAState wiring ------------------------------------- */

static int
st_long(PyObject *st, const char *name, long *out)
{
    PyObject *v = PyObject_GetAttrString(st, name);
    if (v == NULL)
        return -1;
    *out = PyLong_AsLong(v);
    Py_DECREF(v);
    return (*out == -1 && PyErr_Occurred()) ? -1 : 0;
}

static int
st_double(PyObject *st, const char *name, double *out)
{
    PyObject *v = PyObject_GetAttrString(st, name);
    if (v == NULL)
        return -1;
    *out = PyFloat_AsDouble(v);
    Py_DECREF(v);
    return (*out == -1.0 && PyErr_Occurred()) ? -1 : 0;
}

/* A fresh int32 array copied from the n-element list ``st.<name>``. */
static int32_t *
st_ints(PyObject *st, const char *name, long n)
{
    PyObject *v = PyObject_GetAttrString(st, name);
    if (v == NULL)
        return NULL;
    PyObject *seq = PySequence_Fast(v, "kernel: wiring is not a sequence");
    Py_DECREF(v);
    if (seq == NULL)
        return NULL;
    int32_t *out = NULL;
    if (PySequence_Fast_GET_SIZE(seq) != n) {
        PyErr_Format(PyExc_ValueError, "kernel: st.%s has %zd entries, "
                     "expected %ld", name, PySequence_Fast_GET_SIZE(seq), n);
        goto done;
    }
    out = (int32_t *)PyMem_Malloc((size_t)(n ? n : 1) * sizeof(int32_t));
    if (out == NULL) {
        PyErr_NoMemory();
        goto done;
    }
    for (long i = 0; i < n; i++) {
        long x = PyLong_AsLong(PySequence_Fast_GET_ITEM(seq, i));
        if (x == -1 && PyErr_Occurred()) {
            PyMem_Free(out);
            out = NULL;
            goto done;
        }
        out[i] = (int32_t)x;
    }
done:
    Py_DECREF(seq);
    return out;
}

#define CALLOC(ptr, n)                                                    \
    if (((ptr) = PyMem_Calloc((size_t)(n) + 1, sizeof(*(ptr)))) == NULL) { \
        PyErr_NoMemory();                                                 \
        return -1;                                                        \
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
    for (long r = 0; r < NR; r++) {
        long end = r + 1 < NR ? k->p_off[r + 1] : NP;
        for (long g = k->p_off[r]; g < end && g < NP; g++)
            k->p_rid[g] = (int32_t)r;
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
    CALLOC(k->n_src, NN)
    CALLOC(k->g_t, NN)
    CALLOC(k->g_d, NN)
    CALLOC(k->g_i, NN)
    CALLOC(k->g_n, NN)
    CALLOC(k->a_ejcnt, NN)
    CALLOC(k->self_routes, NR)
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
    for (Py_ssize_t i = 0; i < k->size; i++) {
        Py_VISIT(k->heap[i].fn);
        Py_VISIT(k->heap[i].args);
    }
    for (int32_t i = 0; i < k->nslots; i++) {
        Py_VISIT(k->slots[i].route);
        Py_VISIT(k->slots[i].msg_id);
        Py_VISIT(k->slots[i].pkt);
    }
    if (k->built) {
        for (long n = 0; n < k->NN; n++) {
            Py_VISIT(k->n_src[n]);
            DRing *q = &k->n_q[n];
            for (int32_t j = 0; j < q->len; j++)
                Py_VISIT(dring_at(q, j)->msg_id);
        }
        for (long r = 0; r < k->NR; r++)
            Py_VISIT(k->self_routes[r]);
    }
    for (size_t i = 0; i < k->memo_cap; i++) {
        Py_VISIT(k->memo[i].a);
        Py_VISIT(k->memo[i].b);
        Py_VISIT(k->memo[i].route);
    }
    for (int i = 0; i < k->nkinds; i++)
        Py_VISIT(k->kinds[i]);
    for (int i = 0; i < k->rng_n; i++) {
        Py_VISIT(k->rng[i].obj);
        Py_VISIT(k->rng[i].gauss);
    }
    Py_VISIT(k->net);
    Py_VISIT(k->packet_cls);
    Py_VISIT(k->deliver);
    Py_VISIT(k->fm_divert);
    Py_VISIT(k->min_rows);
    Py_VISIT(k->leg_rows);
    Py_VISIT(k->composed);
    Py_VISIT(k->selfs);
    Py_VISIT(k->minimal_fill);
    Py_VISIT(k->leg_fill);
    Py_VISIT(k->compose);
    Py_VISIT(k->compose_or_none);
    Py_VISIT(k->self_route);
    Py_VISIT(k->stats_absorb);
    return 0;
}

/* Drop every Python reference the kernel holds. */
static int
Kernel_tp_clear(Kernel *k)
{
    kernel_drop_events(k);
    for (int32_t i = 0; i < k->nslots; i++) {
        Py_CLEAR(k->slots[i].route);
        Py_CLEAR(k->slots[i].msg_id);
        Py_CLEAR(k->slots[i].pkt);
    }
    if (k->built) {
        for (long n = 0; n < k->NN; n++) {
            Py_CLEAR(k->n_src[n]);
            DRing *q = &k->n_q[n];
            while (q->len) {
                Desc d = dring_pop(q);
                Py_XDECREF(d.msg_id);
            }
        }
        for (long r = 0; r < k->NR; r++)
            Py_CLEAR(k->self_routes[r]);
    }
    for (size_t i = 0; i < k->memo_cap; i++) {
        Py_CLEAR(k->memo[i].a);
        Py_CLEAR(k->memo[i].b);
        Py_CLEAR(k->memo[i].route);
    }
    k->memo_n = 0;
    for (int i = 0; i < k->nkinds; i++)
        Py_CLEAR(k->kinds[i]);
    k->nkinds = 0;
    for (int i = 0; i < k->rng_n; i++)
        crng_drop(&k->rng[i]);
    k->rng_n = 0;
    k->resident = 0;
    unbind_refs(k);
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
    for (int32_t i = 0; i < k->nslots; i++)
        PyMem_Free(k->slots[i].path);
    PyMem_Free(k->slots);
    PyMem_Free(k->memo);
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
        }
    }
    void *arrays[] = {
        k->p_off, k->p_rid, k->p_dest_in, k->in_pbase, k->in_up_port,
        k->in_up_node, k->n_in, k->n_rid, k->n_eject, k->row_port,
        k->p_has_cred, k->p_busy_t, k->p_busy_s, k->p_sent, k->p_queued,
        k->p_rr, k->p_oqtot, k->p_wake, k->p_dead, k->p_pend, k->pv_occ,
        k->pv_cred, k->pv_mat, k->pv_oq, k->pv_arr, k->iv_q, k->n_busy_t,
        k->n_busy_s, k->n_stalls, k->n_cred, k->n_mat, k->n_qp, k->n_wake,
        k->n_q, k->n_arr, k->n_src, k->g_t, k->g_d, k->g_i, k->g_n,
        k->a_lat, k->a_ejcnt, k->self_routes,
    };
    for (size_t i = 0; i < sizeof(arrays) / sizeof(arrays[0]); i++)
        PyMem_Free(arrays[i]);
    Py_TYPE(k)->tp_free((PyObject *)k);
}

static PyMemberDef Kernel_members[] = {
    {"now", T_DOUBLE, offsetof(Kernel, now), 0,
     "Current simulated time (ns)."},
    {"seq", T_LONGLONG, offsetof(Kernel, seq), 0,
     "Last sequence number handed out."},
    {"cs", T_LONGLONG, offsetof(Kernel, cs), 0,
     "Sequence number of the executing (or last executed) event."},
    {"executed", T_LONGLONG, offsetof(Kernel, executed), 0,
     "Events executed since the last clear()."},
    {"pkt_bytes", T_LONGLONG, offsetof(Kernel, pkt_bytes), 0,
     "Packet size of the pregenerated synthetic streams."},
    {NULL, 0, 0, 0, NULL},
};

static PyMethodDef Kernel_methods[] = {
    {"push", (PyCFunction)Kernel_push, METH_VARARGS,
     "push(t, seq, op, a, b, c): queue one event record."},
    {"run", (PyCFunction)Kernel_run, METH_VARARGS,
     "run(until=None, max_events=None, fastpath=None) -> executed count."},
    {"clear", (PyCFunction)Kernel_clear, METH_NOARGS,
     "Drop queued events; reset clock, sequence and profile counters."},
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
     METH_FASTCALL, "nic_submit(node, dst, size, msg_id): NIC.submit."},
    {"nic_set_source", (PyCFunction)Kernel_nic_set_source, METH_VARARGS,
     "nic_set_source(node, iterator): NIC.set_source."},
    {"nic_info", (PyCFunction)Kernel_nic_info, METH_O,
     "nic_info(node) -> (queued_packets, credit_stalls, credits, source)."},
    {"queue_len", (PyCFunction)(void (*)(void))Kernel_queue_len,
     METH_FASTCALL, "queue_len(router, neighbor): UGAL-L's signal."},
    {"set_stream", (PyCFunction)Kernel_set_stream, METH_VARARGS,
     "set_stream(node, times, dsts): a pregenerated injection stream."},
    {"set_dead", (PyCFunction)Kernel_set_dead, METH_VARARGS,
     "set_dead(gid, flag): mark an output port failed or live."},
    {"drain_port", (PyCFunction)Kernel_drain_port, METH_VARARGS,
     "drain_port(gid, divert): fail-time drain of a dead port."},
    {"reset_sent", (PyCFunction)Kernel_reset_sent, METH_NOARGS,
     "Zero the per-port transmission counters."},
    {"view", (PyCFunction)Kernel_view, METH_O,
     "view(name): live read-only buffer over one state array."},
    {"lengths", (PyCFunction)Kernel_lengths, METH_O,
     "lengths(name): int32 bytes of every queue's length."},
    {"queue", (PyCFunction)Kernel_queue, METH_VARARGS,
     "queue(name, i): one queue's entries, head first."},
    {"next_port", (PyCFunction)Kernel_next_port, METH_O,
     "next_port(slot) -> (hop, port index the packet requests)."},
    {NULL, NULL, 0, NULL},
};

static PyTypeObject KernelType = {
    PyVarObject_HEAD_INIT(NULL, 0)
    .tp_name = "repro.sim.vec._kernel.Kernel",
    .tp_basicsize = sizeof(Kernel),
    .tp_dealloc = (destructor)Kernel_dealloc,
    .tp_flags = Py_TPFLAGS_DEFAULT | Py_TPFLAGS_HAVE_GC,
    .tp_doc = "Compiled event heap, simulation state and dispatch core.",
    .tp_traverse = (traverseproc)Kernel_traverse,
    .tp_clear = (inquiry)Kernel_tp_clear,
    .tp_methods = Kernel_methods,
    .tp_members = Kernel_members,
    .tp_init = (initproc)Kernel_init,
    .tp_new = PyType_GenericNew,
};

/* Test hook (tests/test_kernel_rng_parity.py): import the state of a
 * random.Random, perform a scripted sequence of draws with the C
 * generator, export the advanced state back, and return the drawn
 * values.  Exercises exactly the import -> draw -> export path the
 * fast path uses, so draw-for-draw equality here is the parity proof. */
static PyObject *
mod_rng_parity(PyObject *Py_UNUSED(self), PyObject *args)
{
    PyObject *rng_obj, *ops;
    if (!PyArg_ParseTuple(args, "OO", &rng_obj, &ops))
        return NULL;
    CRng r;
    memset(&r, 0, sizeof(r));
    r.obj = rng_obj;
    Py_INCREF(r.obj);
    if (crng_import(&r) < 0) {
        crng_drop(&r);
        return NULL;
    }
    PyObject *out = PyList_New(0);
    PyObject *seq = out ? PySequence_Fast(ops, "ops must be a sequence")
                        : NULL;
    if (seq == NULL)
        goto fail;
    for (Py_ssize_t i = 0; i < PySequence_Fast_GET_SIZE(seq); i++) {
        PyObject *op = PySequence_Fast_GET_ITEM(seq, i);
        const char *kind;
        long arg;
        if (!PyArg_ParseTuple(op, "sl", &kind, &arg))
            goto fail;
        long val;
        if (strcmp(kind, "randbelow") == 0) {
            val = mt_randbelow(&r, arg);
        } else if (strcmp(kind, "getrandbits") == 0) {
            if (arg < 1 || arg > 32) {
                PyErr_SetString(PyExc_ValueError,
                                "getrandbits arg must be in [1, 32]");
                goto fail;
            }
            val = (long)mt_getrandbits(&r, (int)arg);
        } else {
            PyErr_Format(PyExc_ValueError, "unknown op %s", kind);
            goto fail;
        }
        PyObject *v = PyLong_FromLong(val);
        if (v == NULL)
            goto fail;
        int ar = PyList_Append(out, v);
        Py_DECREF(v);
        if (ar < 0)
            goto fail;
    }
    if (crng_export(&r) < 0)
        goto fail;
    Py_DECREF(seq);
    crng_drop(&r);
    return out;
fail:
    Py_XDECREF(seq);
    Py_XDECREF(out);
    crng_drop(&r);
    return NULL;
}

static PyMethodDef module_methods[] = {
    {"_rng_parity", mod_rng_parity, METH_VARARGS,
     "_rng_parity(rng, ops) -> list of draws; ops are "
     "('randbelow'|'getrandbits', n) pairs. Test-only."},
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
        {&str_eject_time, "eject_time"}, {&str_deliver, "deliver"},
        {&str_fault_manager, "fault_manager"},
        {&str_divert_packet, "divert_packet"}, {&str_tracer, "tracer"},
        {&str_msg_track, "_msg_track"},
        {&str_delivery_listeners, "_delivery_listeners"},
        {&str_make_packet, "make_packet"}, {&str_stats, "stats"},
        {&str_record_inject, "record_inject"}, {&str_net_pid, "_pid"},
    };
    for (size_t i = 0; i < sizeof(names) / sizeof(names[0]); i++)
        if ((*names[i].dst = PyUnicode_InternFromString(names[i].s)) == NULL)
            return NULL;
    if (PyType_Ready(&KernelType) < 0 || PyType_Ready(&KViewType) < 0)
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
