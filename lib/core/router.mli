(** Routing engines.

    All routing in the paper is greedy and memoryless: a node inspects
    only its own links (plus, with lookahead, its neighbours' links) and
    forwards. Three engines cover every system in the repository:

    - The clockwise rule, {!step} and {!route} over a link {!view}:
      Chord, Crescendo, Symphony, Cacophony, nondeterministic
      Chord/Crescendo, Chord (Prox.) group routing (a view over group
      ids), the dynamic-maintenance simulator and the message-level
      network. A node forwards on the link that gets
      closest to the key clockwise without overshooting it; the route
      ends at the key's closest predecessor among the reachable
      structure. Crescendo's hierarchical behaviour (§2.2) —
      intra-domain locality, inter-domain convergence — is an emergent
      property of this rule; no extra mechanism exists. With a [dead]
      predicate the same rule never forwards to a dead node, and a
      route can strand. {!greedy_clockwise} is {!route} over a frozen
      overlay.
    - {!greedy_clockwise_lookahead}: Symphony/Cacophony's 1-lookahead
      variant (§3.1) that examines neighbours' neighbours and moves to
      the first hop of the best 2-hop pair.
    - {!greedy_xor}: Kademlia/Kandy/CAN/Can-Can bit-fixing: each hop
      must strictly decrease the XOR distance to the key; terminates at
      a local minimum (the key's owner when the adjacency is a valid
      hypercube structure).

    The three engines share {!route}'s loop and hop budget; they differ
    only in the rule that picks each next hop.

    {2 Tracing}

    Every engine takes an optional [?trace] collector
    ({!Canon_telemetry.Trace.t}). When absent — the default — the
    engine behaves exactly as before and allocates nothing for
    telemetry; when present, one {!Canon_telemetry.Span} is offered to
    the collector per lookup (subject to the collector's sampling),
    carrying the full visited path, the hierarchy level of each link
    used (depth of the LCA domain of its endpoints), and cumulative
    physical latency when the collector holds a latency oracle. Routes
    that exceed the hop budget emit a [Stuck] span with the partial
    path before the exception propagates; {!route} additionally emits
    [Stranded] spans for lookups that die at a node with no live useful
    link. *)

open Canon_idspace
open Canon_overlay

exception
  Stuck of {
    at : int;
    key : Id.t;
    hops : int;
    path : int array;  (** nodes visited so far, source first, [at] last *)
  }
(** Raised when a route exceeds the hop budget — always a construction
    bug, never expected on a well-formed overlay. The partial path
    makes the broken route dumpable (and traceable) instead of lost. *)

type view = {
  size : int;  (** node count; bounds the hop budget *)
  id : int -> Id.t;
  links : int -> int array;  (** a node's current links *)
  live : int -> bool;  (** current membership *)
}
(** What the clockwise rule sees of an overlay. A frozen overlay gives a
    view whose membership never changes ({!frozen}); the
    dynamic-maintenance simulator and [canon_net]'s live membership give
    views whose links and membership move under churn. *)

val frozen : Overlay.t -> view
(** The view of a static overlay: every node is live. *)

type step =
  | Forward of { next : int; deviated : bool }
      (** best live no-overshoot link toward the key; [deviated] when
          that link differs from the choice with nothing dead *)
  | Arrived  (** no node in [(at, key]] is linked at all: [at] is the
                 key's predecessor among the reachable structure *)
  | Blocked  (** every useful link is dead — a live owner may exist but
                 [at] cannot see it (the stranded condition) *)

val step : ?dead:(int -> bool) -> view -> at:int -> key:Id.t -> step
(** What the node [at] does with a message for [key], in one pass over
    its links, never forwarding to a node for which [dead] is true
    (crashed, suspected). Without [dead] nothing is dead: the result is
    never [Blocked] and never deviated. Message-level simulations
    ([canon_net]) drive this hop by hop, interleaved with timeouts and
    retries. *)

val route :
  ?trace:Canon_telemetry.Trace.t ->
  ?level:(int -> int -> int) ->
  ?dead:(int -> bool) ->
  view ->
  src:int ->
  key:Id.t ->
  Route.t option
(** Repeats {!step} from [src] until the message arrives; [None] when it
    strands at a node whose every useful link is dead — the quantity the
    fault-isolation experiment measures. Never [None] without [dead].
    Traced spans use [level] for per-hop link levels (default: 0 for
    every edge — no hierarchy known). Raises [Invalid_argument] when
    [src] is dead. *)

val greedy_clockwise :
  ?trace:Canon_telemetry.Trace.t -> Overlay.t -> src:int -> key:Id.t -> Route.t
(** {!route} over the {!frozen} overlay with nothing dead: the path ends
    at the first node having no link that moves clockwise-closer to
    [key] without passing it. On any overlay whose every node links to
    its global successor, that final node is the global predecessor of
    [key]. *)

val greedy_clockwise_lookahead :
  ?trace:Canon_telemetry.Trace.t -> Overlay.t -> src:int -> key:Id.t -> Route.t
(** Same termination behaviour as {!greedy_clockwise} but each step
    picks the neighbour whose own best next step lands closest to the
    key (Symphony's "greedy routing with a lookahead"). *)

val greedy_xor :
  ?trace:Canon_telemetry.Trace.t -> Overlay.t -> src:int -> key:Id.t -> Route.t
(** Route by strictly decreasing XOR distance; ends where no link
    improves. *)

val level_of_edge : Overlay.t -> int -> int -> int
(** [level_of_edge overlay u v] is the hierarchy depth of the link
    (u, v): the depth of the lowest common ancestor domain of the two
    endpoints (0 = top-level link). Exposed for instrumentation built
    outside this module. *)
