//! The virtual-clock planner: admission, batch coalescing and shard
//! timeline construction.
//!
//! Planning is a discrete-event simulation over a virtual microsecond
//! clock.  Three event sources interleave in time order (ties resolved
//! completion → deadline → submission, so capacity freed at instant `t` is
//! visible to a submission at the same instant):
//!
//! 1. **Submissions** from the deterministic load pattern.  An admitted
//!    request joins the open batch; a request that finds every queue slot
//!    occupied is recorded as rejected (typed backpressure, never a silent
//!    drop).
//! 2. **Batch deadlines** — the open batch closes when its oldest request
//!    has waited [`BatchPolicy::max_delay_us`].
//! 3. **Batch completions** — release queue capacity and (closed loop)
//!    re-arm the clients whose requests finished.
//!
//! The open batch also closes the moment it reaches
//! [`BatchPolicy::max_batch`].  A closed batch is assigned round-robin to
//! a shard and scheduled at `max(close, shard_free)`; its virtual service
//! time comes from the [`ServiceModel`].  Everything is arithmetic over
//! the seed and the configuration, so the same inputs always produce the
//! identical plan — batching decisions are replayable in tests, and the
//! **batch composition is independent of the shard count** whenever no
//! request is rejected (admission pressure is the only completion-time
//! feedback into coalescing).

use crate::error::ServeError;
use crate::histogram::LatencyHistogram;
use crate::load::{self, LoadPattern};
use crate::policy::{BatchPolicy, ServiceModel};
use crate::queue::{Request, RequestQueue};
use std::cmp::Reverse;
use std::collections::BinaryHeap;

/// Static configuration of a serving run.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ServeConfig {
    /// Coalescing policy.
    pub policy: BatchPolicy,
    /// Number of worker shards (each owns one `KernelScratch`).
    pub shards: usize,
    /// Capacity of the submission queue (admitted-but-incomplete requests).
    pub queue_capacity: usize,
    /// Virtual per-batch cost model driving the planner's clock.
    pub service: ServiceModel,
}

impl ServeConfig {
    /// Checks the configuration invariants.
    ///
    /// # Errors
    ///
    /// Returns [`ServeError::InvalidConfig`] for a zero shard count, zero
    /// queue capacity or an invalid policy.
    pub fn validate(&self) -> Result<(), ServeError> {
        self.policy.validate()?;
        if self.shards == 0 {
            return Err(ServeError::InvalidConfig {
                context: "shard count must be at least 1".to_string(),
            });
        }
        if self.queue_capacity == 0 {
            return Err(ServeError::InvalidConfig {
                context: "queue capacity must be at least 1".to_string(),
            });
        }
        Ok(())
    }
}

/// One submission, as planned.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PlannedRequest {
    /// Monotonic submission id (also the request's index in the plan).
    pub id: u64,
    /// Arrival time in virtual microseconds.
    pub arrival_us: u64,
    /// Index into the engine's image pool.
    pub image: usize,
    /// The batch that serves this request, or `None` if it was rejected at
    /// admission.
    pub batch: Option<usize>,
}

/// One coalesced batch on a shard's timeline.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PlannedBatch {
    /// The shard executing this batch (round-robin by batch sequence).
    pub shard: usize,
    /// Arrival of the batch's oldest request.
    pub first_arrival_us: u64,
    /// When the coalescer closed the batch.
    pub close_us: u64,
    /// When the shard starts it: `max(close_us, shard free time)`.
    pub start_us: u64,
    /// `start_us` plus the model's virtual service time.
    pub completion_us: u64,
    /// Offset of the batch's members in the plan's flat member list.
    pub member_start: usize,
    /// Number of member requests.
    pub members: usize,
}

/// A fully planned serving run: every admission decision, batch and shard
/// assignment, replayable and machine-independent.
#[derive(Debug, Clone)]
pub struct Plan {
    config: ServeConfig,
    image_count: usize,
    requests: Vec<PlannedRequest>,
    batches: Vec<PlannedBatch>,
    /// Flat batch-member storage: request indices, grouped per batch.
    members: Vec<usize>,
    /// Per request: its slot in its shard's output stream (0 if rejected).
    slots: Vec<usize>,
    /// Members per shard (sizes the executor's output buffers).
    shard_members: Vec<usize>,
}

/// Closed-loop client bookkeeping.
struct Client {
    /// Next submission time, or `None` while waiting for a completion.
    ready_at: Option<u64>,
    /// Number of submissions attempted so far (jitter stream index).
    attempts: u64,
}

/// The submission source driving the planner.
enum Source {
    Open {
        rate_per_sec: f64,
        next_arrival_us: u64,
    },
    Closed {
        clients: Vec<Client>,
        think_us: u64,
        /// Client of each submitted request (indexed by request id).
        client_of: Vec<usize>,
    },
}

impl Plan {
    /// Plans a serving run.
    ///
    /// # Errors
    ///
    /// Returns [`ServeError::InvalidConfig`] for an invalid configuration
    /// or pattern, or a zero-sized image pool.
    pub fn build(
        config: &ServeConfig,
        pattern: &LoadPattern,
        seed: u64,
        image_count: usize,
    ) -> Result<Plan, ServeError> {
        config.validate()?;
        pattern.validate()?;
        if image_count == 0 {
            return Err(ServeError::InvalidConfig {
                context: "image pool must hold at least one image".to_string(),
            });
        }

        let total = pattern.requests();
        let mut plan = Plan {
            config: *config,
            image_count,
            requests: Vec::with_capacity(total),
            batches: Vec::new(),
            members: Vec::with_capacity(total),
            slots: vec![0; total],
            shard_members: vec![0; config.shards],
        };
        let mut queue = RequestQueue::new(config.queue_capacity)?;
        let mut source = match *pattern {
            LoadPattern::OpenLoop { rate_per_sec, .. } => Source::Open {
                rate_per_sec,
                next_arrival_us: load::open_loop_gap_us(seed, 0, rate_per_sec),
            },
            LoadPattern::ClosedLoop {
                clients, think_us, ..
            } => Source::Closed {
                clients: (0..clients)
                    .map(|client| Client {
                        ready_at: Some(load::think_gap_us(seed, client, 0, think_us)),
                        attempts: 1,
                    })
                    .collect(),
                think_us,
                client_of: Vec::with_capacity(total),
            },
        };
        let mut shard_free = vec![0u64; config.shards];
        // Min-heap of (completion, batch index) pending completion events.
        let mut completions: BinaryHeap<Reverse<(u64, usize)>> = BinaryHeap::new();
        let mut batch_buffer: Vec<Request> = Vec::with_capacity(config.policy.max_batch);
        let mut submitted = 0usize;

        loop {
            let t_submit = if submitted < total {
                source.next_ready()
            } else {
                None
            };
            let t_deadline = queue
                .oldest_arrival_us()
                .map(|arrival| arrival + config.policy.max_delay_us);
            let t_complete = completions.peek().map(|Reverse((t, _))| *t);

            // Tie order: completion, then deadline, then submission.
            let next_completion = t_complete
                .filter(|&t| t_deadline.is_none_or(|d| t <= d) && t_submit.is_none_or(|s| t <= s));
            if let Some(now) = next_completion {
                // `peek` above proved the heap is non-empty.
                if let Some(Reverse((_, batch_index))) = completions.pop() {
                    let batch = plan.batches[batch_index];
                    queue.complete(batch.members);
                    if let Source::Closed {
                        clients,
                        think_us,
                        client_of,
                    } = &mut source
                    {
                        let members =
                            &plan.members[batch.member_start..batch.member_start + batch.members];
                        for &request in members {
                            let client = client_of[request];
                            let gap = load::think_gap_us(
                                seed,
                                client,
                                clients[client].attempts,
                                *think_us,
                            );
                            clients[client].ready_at = Some(now + gap);
                        }
                    }
                }
                continue;
            }

            let deadline_due = t_deadline
                .filter(|&d| t_submit.is_none_or(|s| d <= s))
                .is_some();
            if deadline_due {
                if let Some(deadline) = t_deadline {
                    plan.close_batch(
                        deadline,
                        &mut queue,
                        &mut shard_free,
                        &mut completions,
                        &mut batch_buffer,
                    );
                }
                continue;
            }

            let Some(now) = t_submit else {
                break;
            };
            let id = submitted as u64;
            let image = load::image_for(seed, id, image_count);
            let admitted = queue
                .try_push(Request {
                    id,
                    arrival_us: now,
                    image,
                })
                .is_ok();
            plan.requests.push(PlannedRequest {
                id,
                arrival_us: now,
                image,
                batch: None,
            });
            source.advance(seed, now, id, admitted);
            submitted += 1;
            if queue.waiting() == config.policy.max_batch {
                plan.close_batch(
                    now,
                    &mut queue,
                    &mut shard_free,
                    &mut completions,
                    &mut batch_buffer,
                );
            }
        }
        Ok(plan)
    }

    /// Closes the oldest `max_batch` waiting requests into a new batch at
    /// time `close_us` and schedules it on the next round-robin shard.
    fn close_batch(
        &mut self,
        close_us: u64,
        queue: &mut RequestQueue,
        shard_free: &mut [u64],
        completions: &mut BinaryHeap<Reverse<(u64, usize)>>,
        buffer: &mut Vec<Request>,
    ) {
        buffer.clear();
        let taken = queue.take_batch(self.config.policy.max_batch, buffer);
        if taken == 0 {
            return;
        }
        let batch_index = self.batches.len();
        let shard = batch_index % self.config.shards;
        let start_us = close_us.max(shard_free[shard]);
        let completion_us = start_us + self.config.service.service_us(taken);
        shard_free[shard] = completion_us;
        let member_start = self.members.len();
        for request in buffer.iter() {
            let index = request.id as usize;
            self.requests[index].batch = Some(batch_index);
            self.slots[index] = self.shard_members[shard];
            self.shard_members[shard] += 1;
            self.members.push(index);
        }
        self.batches.push(PlannedBatch {
            shard,
            first_arrival_us: buffer[0].arrival_us,
            close_us,
            start_us,
            completion_us,
            member_start,
            members: taken,
        });
        completions.push(Reverse((completion_us, batch_index)));
    }

    /// The configuration the plan was built for.
    pub fn config(&self) -> &ServeConfig {
        &self.config
    }

    /// Size of the image pool the plan indexes into.
    pub fn image_count(&self) -> usize {
        self.image_count
    }

    /// Every submission, in id order (admitted and rejected).
    pub fn requests(&self) -> &[PlannedRequest] {
        &self.requests
    }

    /// Every batch, in close order.
    pub fn batches(&self) -> &[PlannedBatch] {
        &self.batches
    }

    /// The request indices of batch `batch`, in coalescing order.
    pub fn batch_members(&self, batch: usize) -> &[usize] {
        let b = &self.batches[batch];
        &self.members[b.member_start..b.member_start + b.members]
    }

    /// The output slot of request `request` within its shard.
    pub fn slot(&self, request: usize) -> usize {
        self.slots[request]
    }

    /// Number of member requests planned onto shard `shard`.
    pub fn shard_member_count(&self, shard: usize) -> usize {
        self.shard_members[shard]
    }

    /// Number of served (admitted) requests.
    pub fn served(&self) -> usize {
        self.members.len()
    }

    /// Number of rejected submissions (queue overflow backpressure).
    pub fn rejected(&self) -> usize {
        self.requests.len() - self.members.len()
    }

    /// Mean batch size, or 0.0 without batches.
    pub fn mean_batch(&self) -> f64 {
        if self.batches.is_empty() {
            0.0
        } else {
            self.members.len() as f64 / self.batches.len() as f64
        }
    }

    /// Largest planned batch.
    pub fn max_batch(&self) -> usize {
        self.batches.iter().map(|b| b.members).max().unwrap_or(0)
    }

    /// Per-shard virtual end-to-end latency histograms (arrival →
    /// completion), in microseconds.
    pub fn virtual_latency_by_shard(&self) -> Vec<LatencyHistogram> {
        let mut histograms = vec![LatencyHistogram::new(); self.config.shards];
        for batch in &self.batches {
            let members = &self.members[batch.member_start..batch.member_start + batch.members];
            for &request in members {
                let latency = batch.completion_us - self.requests[request].arrival_us;
                histograms[batch.shard].record(latency);
            }
        }
        histograms
    }

    /// Virtual end-to-end latency over all shards (shard histograms merged).
    pub fn virtual_latency(&self) -> LatencyHistogram {
        let mut merged = LatencyHistogram::new();
        for histogram in self.virtual_latency_by_shard() {
            merged.merge(&histogram);
        }
        merged
    }
}

impl Source {
    /// Earliest pending submission time.
    fn next_ready(&self) -> Option<u64> {
        match self {
            Source::Open {
                next_arrival_us, ..
            } => Some(*next_arrival_us),
            Source::Closed { clients, .. } => {
                clients.iter().filter_map(|client| client.ready_at).min()
            }
        }
    }

    /// Advances past submission `id` handled at time `now`.
    fn advance(&mut self, seed: u64, now: u64, id: u64, admitted: bool) {
        match self {
            Source::Open {
                rate_per_sec,
                next_arrival_us,
            } => {
                *next_arrival_us = now + load::open_loop_gap_us(seed, id + 1, *rate_per_sec);
            }
            Source::Closed {
                clients,
                think_us,
                client_of,
            } => {
                // The ready client with the smallest time (ties: lowest
                // index) just submitted.
                let chosen = clients
                    .iter()
                    .enumerate()
                    .filter_map(|(index, client)| client.ready_at.map(|t| (t, index)))
                    .min()
                    .map(|(_, index)| index);
                if let Some(index) = chosen {
                    client_of.push(index);
                    clients[index].attempts += 1;
                    clients[index].ready_at = if admitted {
                        // Woken by the completion event of its batch.
                        None
                    } else {
                        // Rejected: back off one think time and retry.
                        let gap =
                            load::think_gap_us(seed, index, clients[index].attempts, *think_us);
                        Some(now + gap)
                    };
                }
            }
        }
    }
}
