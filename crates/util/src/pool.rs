//! Pooled node recycling: an allocation-free steady state for the
//! node-per-element queues.
//!
//! Both paper queues (and the Michael–Scott baselines) traffic in one
//! heap node per element: every enqueue calls the global allocator and
//! every dequeue ends in `free()`. At high thread counts the
//! producer-allocates/consumer-frees pattern defeats every thread-local
//! malloc cache and the allocator — not the paper's §3 ABA machinery —
//! dominates cycles per operation. [`NodePool`] removes the allocator
//! from the hot path with a three-level free list:
//!
//! 1. **Per-handle cache** ([`PoolHandle`]): a plain `Vec` of free nodes,
//!    capacity [`CACHE_CAP`]. Acquire/release here is a push/pop with no
//!    atomics at all — the common case once the pool is warm. The `Vec`
//!    is allocated the first time a node is parked in it, so a handle
//!    that only ever holds the node it is using never allocates.
//! 2. **Global spill**: a lock-free Treiber stack threaded through the
//!    nodes' headers, with a 16-bit version packed beside the 48-bit head
//!    address in a single `AtomicU64` (the same single-word packing
//!    discipline as the queues themselves). Cache overflow spills here;
//!    cache misses refill from here in batches that *slow-start*: a
//!    handle's first refill takes 1 node, each later one twice as many,
//!    up to `REFILL_BATCH`. A handle built for one operation therefore
//!    moves one node instead of pulling a full batch and pushing it all
//!    back on drop, while a long-lived handle reaches full batches after
//!    five refills.
//! 3. **Slab refill**: when both are empty, one `Layout::array` slab of
//!    [`NodePool::chunk_nodes`] nodes is carved — the only allocator call
//!    the pool ever makes, amortized over the chunk.
//!
//! Nodes are **never individually freed**: a node leaves the allocator's
//! custody when its slab is carved and returns only when the whole pool
//! drops (slabs are freed wholesale). That invariant is what makes the
//! Treiber pop's unsynchronized header read safe — a stale read can
//! never touch unmapped memory, and the versioned head CAS rejects it.
//!
//! ## ABA and the header/payload split
//!
//! [`PoolNode`] is `repr(C)`: an atomic header link first, the payload
//! slot second. The header is only ever traversed *by the pool* while
//! the node is free; queues store and dereference the node address but
//! touch only the payload slot. Keeping the link atomic (rather than a
//! union over the payload) means a racing popper reading a stale header
//! is an ordinary atomic load — no mixed-atomicity UB for TSan or Miri
//! to object to. See DESIGN.md §8 for the argument that recycling an
//! address cannot resurrect any of the queues' §3 ABA defenses.
//!
//! The `no-pool` cargo feature (triage escape hatch, mirroring
//! `strict-sc`) maps the same API onto per-node `alloc`/`dealloc`, so a
//! suspected recycling bug can be bisected with one rebuild.

#[cfg(not(feature = "no-pool"))]
use crate::mem;
use core::marker::PhantomData;
use core::mem::MaybeUninit;
use core::ptr;
use core::sync::atomic::{AtomicPtr, AtomicU64, Ordering};
use std::alloc::{alloc, dealloc, handle_alloc_error, Layout};
use std::sync::Mutex;

/// Capacity of each [`PoolHandle`]'s private free-node cache.
///
/// Sized like a malloc tcache bin: big enough that a thread alternating
/// enqueue/dequeue (or running whole batches) stays entirely local,
/// small enough that a one-sided consumer spills its surplus back to
/// producers promptly.
pub const CACHE_CAP: usize = 64;

/// The most nodes a cache miss pulls from the global spill in one go
/// (half the cache, so a release burst immediately after still has local
/// room). A handle's refills slow-start up to it: 1, 2, 4, … nodes.
#[cfg(not(feature = "no-pool"))]
const REFILL_BATCH: usize = CACHE_CAP / 2;

/// Default number of nodes per slab carve.
const DEFAULT_CHUNK: usize = 128;

/// Low 48 bits: the node address packed into the spill head (and into
/// the queues' own slot words — the pool asserts every slab it carves
/// stays packable).
const ADDR_MASK: u64 = (1 << 48) - 1;

/// A pool-owned node: intrusive free-list header plus the payload slot.
///
/// `repr(C)` pins the header at offset 0; the payload lives behind
/// [`PoolNode::payload_ptr`]. The payload slot is uninitialized while
/// the node sits in the pool — [`PoolHandle::acquire`] always overwrites
/// it before the node is handed out (property-tested: no stale value can
/// leak through recycling).
#[repr(C)]
pub struct PoolNode<T> {
    /// Free-list link, used only while the node is in the global spill.
    /// Atomic so a racing Treiber popper's stale read is well-defined.
    next: AtomicPtr<PoolNode<T>>,
    /// The element payload. Live exactly between `acquire` writing it
    /// and the owning queue moving it out.
    value: MaybeUninit<T>,
}

impl<T> PoolNode<T> {
    /// Raw pointer to the payload slot of `node`.
    ///
    /// # Safety
    /// `node` must point at a live `PoolNode<T>` (pool-carved and not
    /// yet returned to a dropped pool). Whether the slot is initialized
    /// is the caller's contract with acquire/release.
    pub unsafe fn payload_ptr(node: *mut PoolNode<T>) -> *mut T {
        ptr::addr_of_mut!((*node).value).cast::<T>()
    }
}

/// Where an acquired node came from — lets callers feed per-op
/// observability counters (OpStats) without the pool owning them.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum AcquireSource {
    /// Served from the handle's private cache: zero atomics.
    CacheHit,
    /// Cache was empty; a batch was pulled from the global spill.
    Refill,
    /// Both levels empty (or `no-pool` build): freshly carved memory.
    Fresh,
}

/// Where a released node went.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum ReleaseTarget {
    /// Into the handle's private cache: zero atomics.
    Cache,
    /// Cache full — pushed onto the global spill stack.
    Spill,
    /// `no-pool` build only: returned straight to the allocator.
    Freed,
}

/// Monotone pool-level counters (all Relaxed; diagnostics only).
///
/// The counter→code-site mapping is tabulated in DESIGN.md §8.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct PoolStats {
    /// Nodes carved from fresh slabs (incremented per node, at carve
    /// time). Under `no-pool`: one per acquire.
    pub fresh: u64,
    /// Acquires served without carving: handle-cache hits (flushed from
    /// the handle on drop / [`PoolHandle::flush_stats`]) plus nodes
    /// pulled from the global spill.
    pub recycled: u64,
    /// Nodes pushed onto the global spill (handle-cache overflow and
    /// handle-less [`NodePool::recycle_raw`]).
    pub spills: u64,
    /// Batch grabs from the spill into a handle cache (per grab event,
    /// not per node).
    pub refills: u64,
}

/// A typed node pool: per-handle caches over a versioned Treiber spill
/// stack over wholesale slab refill. See the module docs for the design
/// and DESIGN.md §8 for the recycling safety argument.
///
/// Nodes hold no live payload while pooled, so dropping the pool frees
/// raw memory only — it never runs `T`'s destructor.
pub struct NodePool<T> {
    /// Packed spill head: `version << 48 | node address`. The version
    /// advances on every successful push *and* pop, so a popper that
    /// read a stale header link fails its CAS (classic Treiber pop ABA).
    /// A 16-bit wrap within one pop's read/CAS window is the usual
    /// astronomically-unlikely caveat.
    #[cfg_attr(feature = "no-pool", allow(dead_code))]
    spill: AtomicU64,
    /// Every slab carved, for wholesale free on drop: `(base, nodes)`.
    chunks: Mutex<Vec<(*mut PoolNode<T>, usize)>>,
    /// Nodes per slab carve.
    #[cfg_attr(feature = "no-pool", allow(dead_code))]
    chunk_nodes: usize,
    fresh: AtomicU64,
    recycled: AtomicU64,
    spills: AtomicU64,
    refills: AtomicU64,
    _marker: PhantomData<T>,
}

// SAFETY: the pool hands nodes (hence `T` payload slots) across threads;
// the spill stack and slab registry are internally synchronized.
unsafe impl<T: Send> Send for NodePool<T> {}
unsafe impl<T: Send> Sync for NodePool<T> {}

impl<T> Default for NodePool<T> {
    fn default() -> Self {
        Self::new()
    }
}

impl<T> NodePool<T> {
    /// A pool with the default slab size.
    pub fn new() -> Self {
        Self::with_chunk(DEFAULT_CHUNK)
    }

    /// A pool carving `chunk_nodes` nodes per slab (minimum 1).
    pub fn with_chunk(chunk_nodes: usize) -> Self {
        Self {
            spill: AtomicU64::new(0),
            chunks: Mutex::new(Vec::new()),
            chunk_nodes: chunk_nodes.max(1),
            fresh: AtomicU64::new(0),
            recycled: AtomicU64::new(0),
            spills: AtomicU64::new(0),
            refills: AtomicU64::new(0),
            _marker: PhantomData,
        }
    }

    /// Registers a per-thread handle (private cache + this pool).
    pub fn handle(&self) -> PoolHandle<'_, T> {
        PoolHandle {
            pool: self,
            cache: Vec::new(),
            refill: 1,
            local_recycled: 0,
        }
    }

    /// Snapshot of the pool-level counters. Handle-cache hits are folded
    /// in on handle drop or [`PoolHandle::flush_stats`].
    pub fn stats(&self) -> PoolStats {
        PoolStats {
            fresh: self.fresh.load(Ordering::Relaxed),
            recycled: self.recycled.load(Ordering::Relaxed),
            spills: self.spills.load(Ordering::Relaxed),
            refills: self.refills.load(Ordering::Relaxed),
        }
    }

    /// Returns an empty (payload moved out or never initialized) node to
    /// the pool without a handle — the entry point for hazard-domain
    /// deleters and exclusive teardown paths.
    ///
    /// # Safety
    /// `node` must have been acquired from *this* pool, its payload slot
    /// must not hold a live `T`, and the caller transfers ownership.
    pub unsafe fn recycle_raw(&self, node: *mut PoolNode<T>) {
        #[cfg(not(feature = "no-pool"))]
        {
            self.push_spill(node);
            self.spills.fetch_add(1, Ordering::Relaxed);
        }
        #[cfg(feature = "no-pool")]
        {
            dealloc(node.cast::<u8>(), Layout::new::<PoolNode<T>>());
        }
    }

    /// Pushes `node` onto the global spill stack.
    #[cfg(not(feature = "no-pool"))]
    fn push_spill(&self, node: *mut PoolNode<T>) {
        debug_assert!((node as u64 & !ADDR_MASK) == 0 && (node as u64 & 1) == 0);
        let mut cur = self.spill.load(mem::POOL_HEAD_LOAD);
        loop {
            let head = ((cur & ADDR_MASK) as usize) as *mut PoolNode<T>;
            // SAFETY: we own `node` exclusively until the CAS succeeds;
            // concurrent stale readers see an atomic store.
            unsafe { (*node).next.store(head, mem::POOL_NEXT) };
            let next_ver = (cur >> 48).wrapping_add(1) & 0xFFFF;
            let new = (next_ver << 48) | (node as u64);
            match self
                .spill
                .compare_exchange_weak(cur, new, mem::POOL_CAS, mem::POOL_CAS_FAIL)
            {
                Ok(_) => return,
                Err(seen) => cur = seen,
            }
        }
    }

    /// Pops one node from the global spill stack.
    #[cfg(not(feature = "no-pool"))]
    fn pop_spill(&self) -> Option<*mut PoolNode<T>> {
        let mut cur = self.spill.load(mem::POOL_HEAD_LOAD);
        loop {
            let addr = cur & ADDR_MASK;
            if addr == 0 {
                return None;
            }
            let node = (addr as usize) as *mut PoolNode<T>;
            // SAFETY: pooled nodes are slab-owned and never individually
            // freed, so this header read is always of mapped memory; if
            // the node was popped and re-pushed meanwhile, the version
            // in `cur` is stale and the CAS below rejects the swap.
            let next = unsafe { (*node).next.load(mem::POOL_NEXT) };
            let next_ver = (cur >> 48).wrapping_add(1) & 0xFFFF;
            let new = (next_ver << 48) | (next as u64 & ADDR_MASK);
            match self
                .spill
                .compare_exchange_weak(cur, new, mem::POOL_CAS, mem::POOL_CAS_FAIL)
            {
                Ok(_) => return Some(node),
                Err(seen) => cur = seen,
            }
        }
    }

    /// Carves a fresh slab; returns one node, parks the rest in `cache`
    /// (up to the refill watermark) and spills any remainder.
    #[cfg(not(feature = "no-pool"))]
    fn grow_into(&self, cache: &mut Vec<*mut PoolNode<T>>) -> *mut PoolNode<T> {
        let n = self.chunk_nodes;
        let layout =
            Layout::array::<PoolNode<T>>(n).expect("pool slab layout overflows isize::MAX");
        // SAFETY: `n >= 1` and `PoolNode` is never a ZST (the header
        // link alone is 8 bytes), so the layout is non-zero-sized.
        let base = unsafe { alloc(layout) }.cast::<PoolNode<T>>();
        if base.is_null() {
            handle_alloc_error(layout);
        }
        assert!(
            base as u64 + layout.size() as u64 <= ADDR_MASK,
            "pool slab outside the 48-bit packable address range"
        );
        for i in 0..n {
            // SAFETY: `base.add(i)` is in-bounds of the fresh slab;
            // writing the header makes the node structurally valid (the
            // payload slot stays uninitialized by design).
            unsafe {
                ptr::addr_of_mut!((*base.add(i)).next).write(AtomicPtr::new(ptr::null_mut()));
            }
        }
        self.chunks
            .lock()
            .expect("pool slab registry poisoned")
            .push((base, n));
        self.fresh.fetch_add(n as u64, Ordering::Relaxed);
        // Park only up to the refill watermark: filling the cache to the
        // brim would force the very next release to spill.
        let park = (n - 1).min(REFILL_BATCH.saturating_sub(cache.len()));
        if park > 0 {
            open_cache(cache);
        }
        for i in 1..=park {
            // SAFETY: in-bounds nodes of the slab just carved.
            cache.push(unsafe { base.add(i) });
        }
        for i in park + 1..n {
            // SAFETY: as above.
            unsafe { self.push_spill(base.add(i)) };
        }
        base
    }
}

impl<T> Drop for NodePool<T> {
    fn drop(&mut self) {
        // Pooled nodes never hold a live payload, so this is raw-memory
        // release only: free every slab wholesale.
        let chunks = std::mem::take(self.chunks.get_mut().expect("pool slab registry poisoned"));
        for (base, n) in chunks {
            let layout =
                Layout::array::<PoolNode<T>>(n).expect("pool slab layout overflows isize::MAX");
            // SAFETY: `(base, n)` was recorded by `grow_into` with this
            // exact layout and never freed elsewhere.
            unsafe { dealloc(base.cast::<u8>(), layout) };
        }
    }
}

/// Per-thread (or per-queue-handle) view of a [`NodePool`]: the private
/// free-node cache plus locally-buffered hit counters.
pub struct PoolHandle<'p, T> {
    pool: &'p NodePool<T>,
    /// Free nodes; holds no allocation until the first node is parked.
    cache: Vec<*mut PoolNode<T>>,
    /// Nodes the next spill refill may pull: doubles after each refill,
    /// up to `REFILL_BATCH` (slow start, see the module docs).
    #[cfg_attr(feature = "no-pool", allow(dead_code))]
    refill: usize,
    /// Cache hits buffered locally and flushed to the pool on drop, so
    /// the zero-atomics fast path stays zero-atomics.
    local_recycled: u64,
}

// SAFETY: the cached raw pointers are exclusively owned free nodes; the
// handle may migrate threads with them.
unsafe impl<T: Send> Send for PoolHandle<'_, T> {}

impl<T> PoolHandle<'_, T> {
    /// The pool this handle draws from.
    pub fn pool(&self) -> &NodePool<T> {
        self.pool
    }

    /// Acquires a node with `value` written into its payload slot.
    ///
    /// The payload slot is *always* overwritten here, whatever the
    /// node's history — recycling can never leak a previous element.
    pub fn acquire(&mut self, value: T) -> (*mut PoolNode<T>, AcquireSource) {
        let (node, source) = self.acquire_empty();
        // SAFETY: `node` is live and exclusively ours; write initializes
        // the payload slot.
        unsafe { PoolNode::payload_ptr(node).write(value) };
        (node, source)
    }

    /// Acquires a node with an **uninitialized** payload slot.
    fn acquire_empty(&mut self) -> (*mut PoolNode<T>, AcquireSource) {
        #[cfg(not(feature = "no-pool"))]
        {
            if let Some(node) = self.cache.pop() {
                self.local_recycled += 1;
                return (node, AcquireSource::CacheHit);
            }
            if let Some(first) = self.pool.pop_spill() {
                // Hand out the most-recently-spilled node (LIFO: likely
                // cache-hot) and pull the rest of this refill's batch
                // behind it. The cache is empty here.
                let batch = self.refill;
                self.refill = (batch * 2).min(REFILL_BATCH);
                let mut grabbed = 1u64;
                if batch > 1 {
                    open_cache(&mut self.cache);
                }
                while self.cache.len() + 1 < batch {
                    match self.pool.pop_spill() {
                        Some(node) => {
                            self.cache.push(node);
                            grabbed += 1;
                        }
                        None => break,
                    }
                }
                self.pool.refills.fetch_add(1, Ordering::Relaxed);
                self.pool.recycled.fetch_add(grabbed, Ordering::Relaxed);
                return (first, AcquireSource::Refill);
            }
            (self.pool.grow_into(&mut self.cache), AcquireSource::Fresh)
        }
        #[cfg(feature = "no-pool")]
        {
            let layout = Layout::new::<PoolNode<T>>();
            // SAFETY: `PoolNode` is never zero-sized.
            let node = unsafe { alloc(layout) }.cast::<PoolNode<T>>();
            if node.is_null() {
                handle_alloc_error(layout);
            }
            assert!(
                (node as u64 & !ADDR_MASK) == 0,
                "node outside the 48-bit packable address range"
            );
            // SAFETY: fresh allocation; initialize the header.
            unsafe {
                ptr::addr_of_mut!((*node).next).write(AtomicPtr::new(ptr::null_mut()));
            }
            self.pool.fresh.fetch_add(1, Ordering::Relaxed);
            (node, AcquireSource::Fresh)
        }
    }

    /// Returns an *empty* node (payload already moved out or dropped).
    ///
    /// # Safety
    /// `node` came from this handle's pool, ownership transfers, and its
    /// payload slot holds no live `T`.
    pub unsafe fn release(&mut self, node: *mut PoolNode<T>) -> ReleaseTarget {
        #[cfg(not(feature = "no-pool"))]
        {
            if self.cache.len() < CACHE_CAP {
                open_cache(&mut self.cache);
                self.cache.push(node);
                ReleaseTarget::Cache
            } else {
                self.pool.push_spill(node);
                self.pool.spills.fetch_add(1, Ordering::Relaxed);
                ReleaseTarget::Spill
            }
        }
        #[cfg(feature = "no-pool")]
        {
            dealloc(node.cast::<u8>(), Layout::new::<PoolNode<T>>());
            ReleaseTarget::Freed
        }
    }

    /// Moves the payload out of `node` and releases the node.
    ///
    /// # Safety
    /// `node` came from this handle's pool with an initialized payload
    /// slot, and ownership of both node and payload transfers here.
    pub unsafe fn take(&mut self, node: *mut PoolNode<T>) -> (T, ReleaseTarget) {
        let value = PoolNode::payload_ptr(node).read();
        let target = self.release(node);
        (value, target)
    }

    /// Best-effort pre-fill of the private cache to at least
    /// `min(n, CACHE_CAP)` free nodes — lets a batch operation amortize
    /// one pool grab (spill refill or slab carve) across the batch.
    pub fn reserve(&mut self, n: usize) {
        #[cfg(not(feature = "no-pool"))]
        {
            let want = n.min(CACHE_CAP);
            if self.cache.len() >= want {
                return;
            }
            open_cache(&mut self.cache);
            let mut grabbed = 0u64;
            while self.cache.len() < want {
                match self.pool.pop_spill() {
                    Some(node) => {
                        self.cache.push(node);
                        grabbed += 1;
                    }
                    None => break,
                }
            }
            if grabbed > 0 {
                self.pool.refills.fetch_add(1, Ordering::Relaxed);
                self.pool.recycled.fetch_add(grabbed, Ordering::Relaxed);
            }
            while self.cache.len() < want {
                // grow_into hands one node back for immediate use; a
                // reserve parks it instead (or spills if parking filled
                // the cache to capacity already).
                let node = self.pool.grow_into(&mut self.cache);
                if self.cache.len() < CACHE_CAP {
                    self.cache.push(node);
                } else {
                    self.pool.push_spill(node);
                }
            }
        }
        #[cfg(feature = "no-pool")]
        {
            let _ = n;
        }
    }

    /// Number of free nodes parked in the private cache.
    pub fn cached(&self) -> usize {
        self.cache.len()
    }

    /// Folds the locally-buffered cache-hit count into the pool's
    /// [`PoolStats::recycled`] (also runs on drop).
    pub fn flush_stats(&mut self) {
        if self.local_recycled > 0 {
            self.pool
                .recycled
                .fetch_add(self.local_recycled, Ordering::Relaxed);
            self.local_recycled = 0;
        }
    }
}

impl<T> Drop for PoolHandle<'_, T> {
    fn drop(&mut self) {
        self.flush_stats();
        #[cfg(not(feature = "no-pool"))]
        for node in self.cache.drain(..) {
            // Return the private cache so other handles can reuse it.
            // Deliberately uncounted as "spills": this is teardown, not
            // hot-path overflow.
            self.pool.push_spill(node);
        }
    }
}

/// Gives a handle's cache its storage, all [`CACHE_CAP`] slots at once,
/// the first time a node is parked in it. The cache never holds more
/// than `CACHE_CAP` nodes, so it is never reallocated after that.
#[cfg(not(feature = "no-pool"))]
fn open_cache<T>(cache: &mut Vec<*mut PoolNode<T>>) {
    if cache.capacity() == 0 {
        cache.reserve_exact(CACHE_CAP);
    }
}

/// The node-lifecycle mode this workspace was compiled with: `"pooled"`
/// normally, `"malloc"` under `--features no-pool`. The `ext-alloc`
/// experiment stamps its rows with this so the two builds' results can
/// sit in one table.
pub fn mode() -> &'static str {
    if cfg!(feature = "no-pool") {
        "malloc"
    } else {
        "pooled"
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn acquire_take_round_trip() {
        let pool = NodePool::<u64>::new();
        let mut h = pool.handle();
        let (n, src) = h.acquire(0xDEAD_BEEF);
        assert_eq!(src, AcquireSource::Fresh);
        assert_eq!(n as u64 & 1, 0, "node addresses must be even");
        assert_eq!(n as u64 & !ADDR_MASK, 0, "node addresses must pack");
        let (v, _) = unsafe { h.take(n) };
        assert_eq!(v, 0xDEAD_BEEF);
    }

    #[test]
    fn steady_state_hits_the_cache() {
        let pool = NodePool::<u64>::new();
        let mut h = pool.handle();
        let (n, _) = h.acquire(1);
        let (_, target) = unsafe { h.take(n) };
        for i in 0..1_000u64 {
            let (n, src) = h.acquire(i);
            if !cfg!(feature = "no-pool") {
                assert_eq!(src, AcquireSource::CacheHit, "iteration {i}");
                assert_eq!(target, ReleaseTarget::Cache);
            }
            let (v, _) = unsafe { h.take(n) };
            assert_eq!(v, i);
        }
        h.flush_stats();
        let stats = pool.stats();
        if cfg!(feature = "no-pool") {
            assert_eq!(stats.fresh, 1_001);
            assert_eq!(stats.recycled, 0);
        } else {
            assert_eq!(stats.fresh, DEFAULT_CHUNK as u64, "one slab carve total");
            assert!(stats.recycled >= 1_000, "got {stats:?}");
        }
    }

    #[test]
    fn spill_and_refill_move_nodes_between_handles() {
        if cfg!(feature = "no-pool") {
            return;
        }
        let pool = NodePool::<u32>::with_chunk(4);
        let addrs: Vec<_> = {
            let mut producer = pool.handle();
            let nodes: Vec<_> = (0..8).map(|i| producer.acquire(i).0).collect();
            let addrs: Vec<_> = nodes.iter().map(|&n| n as usize).collect();
            for n in nodes {
                unsafe { producer.take(n) };
            }
            addrs
            // producer drop parks its cache on the global spill
        };
        let mut consumer = pool.handle();
        let (n, src) = consumer.acquire(99);
        assert_eq!(src, AcquireSource::Refill, "must reuse spilled nodes");
        assert!(addrs.contains(&(n as usize)), "recycled a known address");
        unsafe { consumer.take(n) };
        assert_eq!(pool.stats().fresh, 8, "two 4-node slabs, no more");
        assert!(pool.stats().refills >= 1);
    }

    #[cfg(not(feature = "no-pool"))]
    #[test]
    fn spill_refills_slow_start_from_one_node() {
        let pool = NodePool::<u64>::with_chunk(4 * CACHE_CAP);
        // Park a slab's worth of nodes on the spill stack.
        {
            let mut h = pool.handle();
            h.reserve(1);
        }
        assert_eq!(pool.stats().fresh, 4 * CACHE_CAP as u64);
        // A fresh handle acquiring without releasing refills once per
        // empty cache; each refill pulls twice the last, up to the cap.
        let mut h = pool.handle();
        let mut held = Vec::new();
        let mut batches = Vec::new();
        while batches.len() < 7 {
            let (n, src) = h.acquire(0);
            if src == AcquireSource::Refill {
                batches.push(h.cached() + 1);
            }
            held.push(n);
        }
        assert_eq!(batches, [1, 2, 4, 8, 16, REFILL_BATCH, REFILL_BATCH]);
        assert_eq!(pool.stats().fresh, 4 * CACHE_CAP as u64, "no carve");
        for n in held {
            unsafe { h.take(n) };
        }
    }

    #[test]
    fn reserve_prefills_for_batches() {
        let pool = NodePool::<u8>::with_chunk(16);
        let mut h = pool.handle();
        h.reserve(10);
        if cfg!(feature = "no-pool") {
            assert_eq!(h.cached(), 0);
            return;
        }
        assert!(h.cached() >= 10);
        let before = pool.stats().fresh;
        for i in 0..10 {
            let (n, src) = h.acquire(i);
            assert_eq!(src, AcquireSource::CacheHit);
            unsafe { h.take(n) };
        }
        assert_eq!(pool.stats().fresh, before, "batch served with zero carves");
    }

    #[test]
    fn recycle_raw_feeds_later_acquires() {
        if cfg!(feature = "no-pool") {
            return;
        }
        let pool = NodePool::<u64>::with_chunk(1);
        let mut h = pool.handle();
        let (n, _) = h.acquire(7);
        let addr = n as usize;
        unsafe {
            PoolNode::payload_ptr(n).read();
            pool.recycle_raw(n);
        }
        assert_eq!(pool.stats().spills, 1);
        // A fresh handle (empty cache) must pull the recycled node back.
        let mut h2 = pool.handle();
        let (n2, src) = h2.acquire(8);
        assert_eq!(src, AcquireSource::Refill);
        assert_eq!(n2 as usize, addr);
        unsafe { h2.take(n2) };
    }

    #[test]
    fn cache_overflow_spills() {
        if cfg!(feature = "no-pool") {
            return;
        }
        let pool = NodePool::<u16>::with_chunk(CACHE_CAP * 2 + 8);
        let mut h = pool.handle();
        let nodes: Vec<_> = (0..CACHE_CAP as u16 + 4).map(|i| h.acquire(i).0).collect();
        let mut targets = Vec::new();
        for n in nodes {
            targets.push(unsafe { h.take(n).1 });
        }
        assert!(targets.contains(&ReleaseTarget::Spill), "{targets:?}");
        assert!(pool.stats().spills > 0);
    }

    #[test]
    fn concurrent_producers_consumers_share_the_pool() {
        let pool = NodePool::<u64>::new();
        let transfer = std::sync::Mutex::new(Vec::<usize>::new());
        std::thread::scope(|s| {
            for t in 0..2 {
                let pool = &pool;
                let transfer = &transfer;
                s.spawn(move || {
                    let mut h = pool.handle();
                    for i in 0..500u64 {
                        let (n, _) = h.acquire(t * 1_000 + i);
                        transfer.lock().unwrap().push(n as usize);
                        // Hand the node's ownership through the mutex;
                        // release a previously-published one if any.
                        let stolen = transfer.lock().unwrap().pop();
                        if let Some(addr) = stolen {
                            let node = addr as *mut PoolNode<u64>;
                            // SAFETY: exactly one thread pops each addr.
                            unsafe { h.take(node) };
                        }
                    }
                });
            }
        });
        // Whatever is left in the transfer list still owns its payload.
        let mut h = pool.handle();
        for addr in transfer.into_inner().unwrap() {
            unsafe { h.take(addr as *mut PoolNode<u64>) };
        }
    }

    #[test]
    fn payloads_drop_exactly_once_via_take() {
        use std::sync::atomic::AtomicUsize;
        use std::sync::Arc;
        struct Tracked(Arc<AtomicUsize>);
        impl Drop for Tracked {
            fn drop(&mut self) {
                self.0.fetch_add(1, Ordering::SeqCst);
            }
        }
        let drops = Arc::new(AtomicUsize::new(0));
        {
            let pool = NodePool::<Tracked>::new();
            let mut h = pool.handle();
            for _ in 0..10 {
                let (n, _) = h.acquire(Tracked(drops.clone()));
                let (v, _) = unsafe { h.take(n) };
                drop(v);
            }
            // Pool drop must NOT run payload destructors.
        }
        assert_eq!(drops.load(Ordering::SeqCst), 10);
    }

    #[test]
    fn mode_tracks_feature() {
        if cfg!(feature = "no-pool") {
            assert_eq!(mode(), "malloc");
        } else {
            assert_eq!(mode(), "pooled");
        }
    }
}
