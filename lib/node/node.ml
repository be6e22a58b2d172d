open Divm_storage
open Divm_dist
open Divm_runtime
module Obs = Divm_obs.Obs
module Prof = Divm_obs.Prof
module Par = Divm_par.Par

(* Registry instruments, mirroring the simulator's so `--metrics` and
   Profile.reconcile treat both backends uniformly. *)
let m_bytes_shuffled = Obs.Counter.make "divm_node_bytes_shuffled_total"
let m_wire_bytes = Obs.Counter.make "divm_node_wire_bytes_total"
let m_stages = Obs.Counter.make "divm_node_stages_total"
let m_batches = Obs.Counter.make "divm_node_batches_total"
let m_worker_ops = Obs.Counter.make "divm_node_worker_ops_total"
let m_driver_ops = Obs.Counter.make "divm_node_driver_ops_total"
let m_round_trips = Obs.Counter.make "divm_node_round_trips_total"
let g_workers = Obs.Gauge.make "divm_node_workers"

(* Straggler detector: max/median worker wall per distributed stage. A
   perfectly balanced stage lands in the first bucket; the tail buckets
   say one worker ran several times longer than the typical one. *)
let h_straggler =
  Obs.Histogram.make
    ~buckets:[| 1.0; 1.05; 1.1; 1.25; 1.5; 2.0; 3.0; 5.0; 10.0 |]
    "divm_stage_straggler_ratio"

(* The worker side's share of [divm_record_ops_total] ([Counter.make] is
   idempotent per name, so in-process this is the runtime's own
   instrument). Workers fold their op deltas in explicitly — they run
   compiled block closures directly, never [Runtime.apply_batch] — which
   keeps the profiler invariant (slot sums = registry deltas) intact on
   the worker's own registry, and therefore on the coordinator's after
   the labeled merge. *)
let w_record_ops = Obs.Counter.make "divm_record_ops_total"

(* How transfer payloads travel between workers: [Star] relays every
   byte through the coordinator (two socket hops per payload byte),
   [Mesh] ships worker-to-worker over a full connection mesh and leaves
   the coordinator as the barrier/ack control plane. *)
type topology = Star | Mesh

type config = {
  workers : int;
  cost : Costmodel.t;
  socket_dir : string option;
  worker_exe : string option;
  shuffle : topology;
}

let config ?(workers = 2) ?(cost = Costmodel.default) ?socket_dir ?worker_exe
    ?(shuffle = Mesh) () =
  { workers; cost; socket_dir; worker_exe; shuffle }

let default_config = config ()

type stage_stat = {
  sname : string;
  predicted : float;
  measured : float;
  sbytes : int;
  swire : int;
  spwire : int;
  swalls : float array;
  slinks : (int * int * int) list;
}

type metrics = {
  latency : float;
  wall : float;
  stages : int;
  round_trips : int;
  bytes_shuffled : int;
  wire_bytes : int;
  max_worker_ops : int;
  driver_ops : int;
  stage_stats : stage_stat list;
}

let ignore_sigpipe () =
  (* A worker dying mid-write must surface as EPIPE, not kill the
     coordinator. *)
  try ignore (Sys.signal Sys.sigpipe Sys.Signal_ignore) with _ -> ()

(* -------------------------------------------------------------- *)
(* Hoisting plan (derived identically by coordinator and workers)  *)
(* -------------------------------------------------------------- *)

(* Work a worker runs inside one [Stage] frame after the stage's block:
   a direct mesh transfer (destination, partition key, source), or a
   gather whose source partition ships back in the reply (only worker
   0's copy matters for a replicated source). *)
type hoisted =
  | HShuffle of string * int array * string
  | HGather of string * bool

(* Where a statement of a local block runs: at its position on the
   coordinator, or folded in from the preceding stage's reply as its
   k-th shuffle (or k-th gather, by transfer kind). *)
type placement = Walk | Hoisted of int

(* Per block of a trigger: for a distributed block, the items hoisted
   out of the local blocks that follow it; for a local block, one
   placement per statement. *)
type bplan = PDist of hoisted list | PLocal of placement list

(* [Loc.find] walks the catalog, a list with an entry per map (about
   1900 on Q3+Q7+Q17): resolve names through a table built once. *)
let loc_index (locs : Loc.catalog) =
  let tbl = Hashtbl.create (List.length locs) in
  List.iter
    (fun (name, l) -> if not (Hashtbl.mem tbl name) then Hashtbl.add tbl name l)
    locs;
  fun name -> Option.value (Hashtbl.find_opt tbl name) ~default:Loc.Local

(* A transfer goes over the mesh when every byte both starts and ends on
   workers: distributed-to-distributed scatters and repartitions.
   Replicated/local sources and gathers stay off the mesh. *)
let mesh_eligible loc ~mesh = function
  | Dprog.Transfer { tkind; source; tname; _ } ->
      mesh && tkind <> Dprog.Gather
      && (match loc source with
         | Loc.Dist _ | Loc.Random -> true
         | Loc.Local | Loc.Replicated -> false)
      && loc tname <> Loc.Local
  | Dprog.Compute _ -> false

let gather_hoistable loc = function
  | Dprog.Transfer { tkind = Dprog.Gather; source; tname; _ } ->
      loc source <> Loc.Local && loc tname = Loc.Local
  | _ -> false

(* The static plan both ends derive from the marshaled program. For
   each distributed block, the items of the following local block (or
   run of local blocks, when fusion left several) the workers run
   before replying: mesh transfers and gathers from worker-resident
   sources — each only if it commutes ([Dprog.commute]) with every
   statement before it in that block, so running it at the stage
   barrier instead of at its position changes no value any statement
   reads. The coordinator still walks every local block in program
   order and folds each hoisted item's reported stats and contents in
   at the item's own position. Everything else — scatters from driver
   or replicated maps, every repartition under the star topology, and
   any item the commute rule keeps in place (none in the TPC-H suite) —
   runs on the star path at its position. *)
let plan (dp : Dprog.t) ~mesh =
  let loc = loc_index dp.locs in
  let shuffle d = mesh_eligible loc ~mesh d in
  let hoistable d = shuffle d || gather_hoistable loc d in
  let hoisted_of = function
    | Dprog.Transfer { tkind = Dprog.Gather; source; _ } ->
        HGather (source, loc source = Loc.Replicated)
    | Dprog.Transfer { tname; key; source; _ } -> HShuffle (tname, key, source)
    | Dprog.Compute _ -> invalid_arg "Node.plan: compute statement hoisted"
  in
  (* [Dprog.commute d s] for a transfer [d] (an assignment) is: [d]'s
     destination is neither read nor written by [s], and [s] does not
     write [d]'s source. Against every statement before [d] that is a
     lookup in the union of their reads and writes, kept incrementally —
     each statement's reads are computed once, not once per pair. *)
  let place stmts =
    let ns = ref 0 and ng = ref 0 and items = ref [] in
    let read = Hashtbl.create 64 and wrote = Hashtbl.create 16 in
    let ps =
      List.map
        (fun d ->
          let p =
            match d with
            | Dprog.Transfer { tname; source; _ }
              when hoistable d
                   && not
                        (Hashtbl.mem read tname || Hashtbl.mem wrote tname
                       || Hashtbl.mem wrote source) ->
                items := hoisted_of d :: !items;
                let c = if shuffle d then ns else ng in
                incr c;
                Hoisted (!c - 1)
            | _ -> Walk
          in
          List.iter (fun m -> Hashtbl.replace read m ()) (Dprog.reads d);
          Hashtbl.replace wrote (Dprog.writes d) ();
          p)
        stmts
    in
    (ps, List.rev !items)
  in
  (* A run of local blocks executes as one statement sequence, so a
     stage hoists out of all of them. *)
  let rec split ps = function
    | [] -> []
    | (b : Dprog.block) :: bs ->
        let n = List.length b.bstmts in
        PLocal (List.filteri (fun i _ -> i < n) ps)
        :: split (List.filteri (fun i _ -> i >= n) ps) bs
  in
  let rec walk = function
    | [] -> []
    | { Dprog.bmode = Dprog.MDist; _ } :: rest ->
        let rec locals acc = function
          | ({ Dprog.bmode = Dprog.MLocal; _ } as b) :: bs -> locals (b :: acc) bs
          | bs -> (List.rev acc, bs)
        in
        let run, rest = locals [] rest in
        let ps, items =
          place (List.concat_map (fun (b : Dprog.block) -> b.bstmts) run)
        in
        (PDist items :: split ps run) @ walk rest
    | { Dprog.bmode = Dprog.MLocal; bstmts } :: rest ->
        PLocal (List.map (fun _ -> Walk) bstmts) :: walk rest
  in
  List.map
    (fun (tr : Dprog.dtrigger) -> (tr.drelation, walk tr.blocks))
    dp.dtriggers

(* -------------------------------------------------------------- *)
(* Worker side                                                     *)
(* -------------------------------------------------------------- *)

(* Per-statement worker plans carry the profiler label and slot resolved
   at compile time, like the runtime's own executor lists: the firing
   path under an enabled profiler pays array additions, not lookups. *)
type wstate = {
  wrt : Runtime.t;
  wdp : Dprog.t;
  wplans : (string * (string * int * (unit -> unit)) list array) list;
  mutable whoist : (string * hoisted list array) list;
      (* per trigger and block, what a [Stage] frame runs after the
         block; derived for the star topology at [Init] and again for
         the mesh once it is wired *)
}

let hoists_of dp ~mesh =
  List.map
    (fun (rel, bps) ->
      ( rel,
        Array.of_list
          (List.map (function PDist h -> h | PLocal _ -> []) bps) ))
    (plan dp ~mesh)

let build_wstate (dp : Dprog.t) =
  (* Same compilation path as the simulator's nodes: one serial runtime
     over the compute program, closures per distributed block. The block
     array indexes line up with the coordinator's plan because both walk
     the identical marshaled [Dprog.t]. *)
  let rt = Runtime.create ~domains:1 (Dprog.compute_prog dp) in
  let wplans =
    List.map
      (fun (tr : Dprog.dtrigger) ->
        ( tr.drelation,
          Array.of_list
            (List.map
               (fun (b : Dprog.block) ->
                 match b.bmode with
                 | Dprog.MLocal -> []
                 | Dprog.MDist ->
                     List.filter_map
                       (fun d ->
                         match d with
                         | Dprog.Transfer _ -> None
                         | Dprog.Compute s ->
                             let label = "stmt:" ^ s.target in
                             Some
                               ( label,
                                 Prof.slot ~trigger:tr.drelation ~label,
                                 List.hd (Runtime.compile_stmts rt [ s ]) ))
                       b.bstmts)
               tr.blocks) ))
      dp.dtriggers
  in
  { wrt = rt; wdp = dp; wplans; whoist = hoists_of dp ~mesh:false }

(* Baseline registry snapshot for the worker's telemetry deltas: each
   [Pull_telemetry] ships [diff] against this and advances it. *)
let w_last_snap = ref []

(* Run one distributed statement under whatever observers the
   coordinator enabled. With the profiler on, the firing is attributed
   to its slot AND its op delta is folded into the worker's registered
   [divm_record_ops_total] — symmetric accounting, so the shipped slot
   rows reconcile exactly against the shipped registry delta. Telemetry
   off costs one flag check ([Obs.span] with tracing disabled invokes
   [f] directly). *)
let wexec s ~label ~slot f =
  if Prof.enabled () then begin
    let o0 = Runtime.ops s.wrt in
    Runtime.run_attributed s.wrt ~label ~slot f;
    Obs.Counter.add w_record_ops (Runtime.ops s.wrt - o0)
  end
  else Obs.span label f

(* Everything observed since the last pull: registry delta (zero entries
   dropped — a worker registers instruments it never touches), nonzero
   profiler slots, completed spans. Slots and spans reset so the next
   pull starts clean; the snapshot baseline advances. *)
let collect_telemetry () =
  let now = Unix.gettimeofday () in
  let later = Obs.snapshot () in
  let delta = Obs.diff ~later ~earlier:!w_last_snap in
  w_last_snap := later;
  let interesting (_, v) =
    match (v : Obs.value) with
    | Obs.VCounter c -> c <> 0
    | Obs.VGauge g -> g <> 0.
    | Obs.VHistogram h -> h.count <> 0
  in
  let slots =
    List.filter (fun (r : Prof.row) -> r.r_firings <> 0) (Prof.rows ())
  in
  Prof.reset ();
  let spans = Obs.events () in
  Obs.clear_events ();
  {
    Protocol.t_now = now;
    t_snap = List.filter interesting delta;
    t_slots = slots;
    t_spans = spans;
  }

(* ---- worker-to-worker mesh (the direct shuffle data plane) ---- *)

(* Mesh state, built by the coordinator's [Peers]/[Mesh_connect]
   handshake: one connected socket per peer worker, indexed by peer id
   ([None] at our own index). *)
type wmesh = {
  mself : int;
  mpaths : string array;
  mutable mlisten : Unix.file_descr option;
  mpeers : Unix.file_descr option array;
}

let mesh_bind ~id paths =
  let w = Array.length paths in
  if id < 0 || id >= w then
    failwith "divm_node worker: Peers does not cover this worker's id";
  let mlisten =
    (* Only acceptors need a listener: worker [i] accepts from every
       higher id and initiates to every lower one. *)
    if id < w - 1 then begin
      let fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
      (try Unix.unlink paths.(id) with _ -> ());
      Unix.bind fd (Unix.ADDR_UNIX paths.(id));
      Unix.listen fd w;
      Some fd
    end
    else None
  in
  { mself = id; mpaths = paths; mlisten; mpeers = Array.make w None }

(* Establish the full mesh: initiate to every lower id, accept from
   every higher one. A Unix-domain [connect] completes as soon as the
   target's listen backlog takes it, whether or not the target has
   reached its own accept loop — so the fixed initiate-then-accept order
   cannot deadlock, whatever order the coordinator's [Mesh_connect]
   frames land in. *)
let mesh_connect m =
  let w = Array.length m.mpaths in
  for j = 0 to m.mself - 1 do
    let fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
    let rec conn tries =
      try Unix.connect fd (Unix.ADDR_UNIX m.mpaths.(j))
      with Unix.Unix_error ((Unix.ENOENT | Unix.ECONNREFUSED), _, _)
      when tries > 0 ->
        Unix.sleepf 0.05;
        conn (tries - 1)
    in
    conn 100;
    ignore (Protocol.write_msg fd (Protocol.Hello m.mself));
    (try Unix.setsockopt_float fd Unix.SO_RCVTIMEO 120. with _ -> ());
    m.mpeers.(j) <- Some fd
  done;
  (match m.mlisten with
  | None -> ()
  | Some lfd ->
      (* Higher ids arrive in arbitrary order; the Hello identifies each. *)
      for _ = m.mself + 1 to w - 1 do
        (match Unix.select [ lfd ] [] [] 30. with
        | [], _, _ ->
            failwith "divm_node worker: mesh peer did not connect within 30s"
        | _ -> ());
        let fd, _ = Unix.accept lfd in
        match Protocol.read_msg fd with
        | Protocol.Hello j, _ when j > m.mself && j < w && m.mpeers.(j) = None
          ->
            (try Unix.setsockopt_float fd Unix.SO_RCVTIMEO 120. with _ -> ());
            m.mpeers.(j) <- Some fd
        | _ -> failwith "divm_node worker: bad mesh handshake"
      done;
      (try Unix.close lfd with _ -> ());
      (try Unix.unlink m.mpaths.(m.mself) with _ -> ());
      m.mlisten <- None)

let mesh_close m =
  (match m.mlisten with
  | Some fd ->
      (try Unix.close fd with _ -> ());
      (try Unix.unlink m.mpaths.(m.mself) with _ -> ())
  | None -> ());
  m.mlisten <- None;
  Array.iteri
    (fun i p ->
      match p with
      | Some fd ->
          (try Unix.close fd with _ -> ());
          m.mpeers.(i) <- None
      | None -> ())
    m.mpeers

(* Full exchange: one frame out to every peer, one frame in from every
   peer, over a single non-blocking select loop that interleaves sends
   with receives. Every worker keeps draining its receive side while its
   own sends are in flight, so a peer blocked on a full socket buffer is
   always relieved by its receiver — the all-to-all cyclic-wait deadlock
   is impossible by construction. Returns the received payloads (length
   prefix stripped), indexed by peer id. *)
let mesh_exchange m (frames : string array) =
  let w = Array.length m.mpeers in
  let self = m.mself in
  let peer_idx = ref [] in
  Array.iteri
    (fun i p ->
      match p with
      | Some fd -> peer_idx := (fd, i) :: !peer_idx
      | None ->
          if i <> self then
            failwith
              (Printf.sprintf "divm_node worker: no mesh link to peer %d" i))
    m.mpeers;
  let index_of fd = List.assoc fd !peer_idx in
  let sent = Array.make w 0 in
  let out_done = Array.init w (fun i -> i = self) in
  let in_done = Array.init w (fun i -> i = self) in
  (* each peer's frame is read straight into exact-size buffers: the
     4-byte length prefix first, then a payload of exactly that size *)
  let hdrs = Array.init w (fun _ -> Bytes.create 4) in
  let bodies = Array.make w Bytes.empty in
  let got = Array.make w 0 in
  List.iter (fun (fd, _) -> Unix.set_nonblock fd) !peer_idx;
  let restore () =
    List.iter (fun (fd, _) -> try Unix.clear_nonblock fd with _ -> ()) !peer_idx
  in
  Fun.protect ~finally:restore @@ fun () ->
  let deadline = Unix.gettimeofday () +. 120. in
  while Array.exists not out_done || Array.exists not in_done do
    if Unix.gettimeofday () > deadline then
      raise (Protocol.Error "mesh exchange timed out after 120s");
    let rds =
      List.filter_map
        (fun (fd, i) -> if in_done.(i) then None else Some fd)
        !peer_idx
    and wrs =
      List.filter_map
        (fun (fd, i) -> if out_done.(i) then None else Some fd)
        !peer_idx
    in
    match Unix.select rds wrs [] 5. with
    | exception Unix.Unix_error (Unix.EINTR, _, _) -> ()
    | rs, ws, _ ->
        List.iter
          (fun fd ->
            let i = index_of fd in
            let s = frames.(i) in
            match
              Unix.write_substring fd s sent.(i) (String.length s - sent.(i))
            with
            | k ->
                sent.(i) <- sent.(i) + k;
                if sent.(i) >= String.length s then out_done.(i) <- true
            | exception
                Unix.Unix_error
                  ((Unix.EAGAIN | Unix.EWOULDBLOCK | Unix.EINTR), _, _) ->
                ())
          ws;
        List.iter
          (fun fd ->
            let i = index_of fd in
            let in_body = got.(i) >= 4 in
            let buf, off, len =
              if in_body then
                (bodies.(i), got.(i) - 4, Bytes.length bodies.(i) - got.(i) + 4)
              else (hdrs.(i), got.(i), 4 - got.(i))
            in
            match Unix.read fd buf off len with
            | 0 ->
                raise
                  (Protocol.Error
                     (Printf.sprintf "mesh peer %d closed mid-shuffle" i))
            | k ->
                got.(i) <- got.(i) + k;
                if (not in_body) && got.(i) = 4 then begin
                  let n = Int32.to_int (Bytes.get_int32_be hdrs.(i) 0) in
                  if n < 1 || n > Protocol.max_frame then
                    raise
                      (Protocol.Error
                         (Printf.sprintf
                            "mesh peer %d: declared frame length %d out of \
                             range (max_frame %d)"
                            i n Protocol.max_frame));
                  bodies.(i) <- Bytes.create n
                end;
                if got.(i) >= 4 && got.(i) = 4 + Bytes.length bodies.(i) then
                  in_done.(i) <- true
            | exception
                Unix.Unix_error
                  ((Unix.EAGAIN | Unix.EWOULDBLOCK | Unix.EINTR), _, _) ->
                ())
          rs
  done;
  Array.init w (fun i ->
      if i = self then "" else Bytes.unsafe_to_string bodies.(i))

(* Every mesh transfer of one stage in a single exchange: partition each
   source partition into per-destination pre-summed buffers, send each
   peer one frame holding one section per transfer, then apply per
   transfer in ascending source order. All sources are partitioned
   before any destination changes, which the plan makes safe: a hoisted
   transfer commutes with every one before it, so none reads another's
   destination. The modeled byte accounting is computed here with
   exactly the simulator's rule (origin = destination moves are free),
   and applying sources in ascending worker id — the same order the
   coordinator's star path and the simulator use — preserves both the
   float association of cross-source collisions and the destination
   map's slot-creation order bit-identically. *)
let mesh_shuffle s m transfers =
  let w = Array.length m.mpeers in
  let self = m.mself in
  let nt = List.length transfers in
  let builders =
    Array.init w (fun d ->
        if d = self then None
        else Some (Protocol.mesh_frame ~src:self ~sections:nt))
  in
  (* sent.(k).(d): bytes of transfer k's section in the frame to peer d
     (its length prefix included); the first section also carries the
     frame header, so the sections sum to the frame exactly *)
  let sent = Array.init nt (fun _ -> Array.make w 0) in
  let parts =
    List.mapi
      (fun k (tname, key, source) ->
        let wall0 = Unix.gettimeofday () in
        let outs = Array.init w (fun _ -> Gmr.create ()) in
        let ser = ref 0 in
        let modeled = Array.make w 0 in
        Runtime.iter_map s.wrt source (fun tup mult ->
            let b = Costmodel.tuple_bytes tup in
            ser := !ser + b;
            if Array.length key = 0 then
              for d = 0 to w - 1 do
                Gmr.add outs.(d) tup mult;
                if d <> self then modeled.(d) <- modeled.(d) + b
              done
            else begin
              let d =
                Divm_ring.Vtuple.hash (Divm_ring.Vtuple.project tup key) mod w
              in
              Gmr.add outs.(d) tup mult;
              if d <> self then modeled.(d) <- modeled.(d) + b
            end);
        Runtime.clear_map s.wrt tname;
        (* peers' buffers go straight into their frames; only our own
           share is kept for the apply *)
        Array.iteri
          (fun d b ->
            match b with
            | Some f ->
                sent.(k).(d) <-
                  Protocol.add_mesh_section f outs.(d)
                  + if k = 0 then Protocol.mesh_frame_header else 0
            | None -> ())
          builders;
        (tname, outs.(self), !ser, modeled, Unix.gettimeofday () -. wall0))
      transfers
  in
  let frames =
    Array.map
      (function Some f -> Protocol.finish_mesh_frame f | None -> "")
      builders
  in
  let x0 = Unix.gettimeofday () in
  let received = if w > 1 then mesh_exchange m frames else frames in
  let xwall = Unix.gettimeofday () -. x0 in
  let sections =
    Array.init w (fun src ->
        if src = self then [||]
        else
          match Protocol.decode received.(src) with
          | Protocol.Mesh_data (src', secs)
            when src' = src && List.length secs = nt ->
              Array.of_list secs
          | Protocol.Mesh_data (src', secs) ->
              failwith
                (Printf.sprintf
                   "divm_node worker: mesh frame from peer %d claims src %d \
                    with %d sections (expected %d)"
                   src src' (List.length secs) nt)
          | _ ->
              failwith
                (Printf.sprintf
                   "divm_node worker: unexpected mesh message from peer %d" src))
  in
  let total = Array.fold_left (Array.fold_left ( + )) 0 sent in
  List.mapi
    (fun k (tname, own, ser, modeled, pwall) ->
      let a0 = Unix.gettimeofday () in
      for src = 0 to w - 1 do
        let g =
          if src = self then own else Protocol.decode_gmr sections.(src).(k)
        in
        (* slot-order replay, exactly like the star path's Deliver handler *)
        Gmr.iter (fun tup mult -> Runtime.add_to_map s.wrt tname tup mult) g
      done;
      (* the shared exchange is charged by each transfer's byte share *)
      let share =
        if total = 0 then 1. /. float_of_int nt
        else float_of_int (Array.fold_left ( + ) 0 sent.(k)) /. float_of_int total
      in
      {
        Protocol.ss_ser = ser;
        ss_modeled = modeled;
        ss_sent = sent.(k);
        ss_wall = pwall +. (Unix.gettimeofday () -. a0) +. (xwall *. share);
      })
    parts

(* One [Stage] frame: load the batch share if it rides along, run the
   block, every hoisted mesh transfer in one exchange, and pack the
   hoisted gathers' source partitions into the single reply. *)
let run_stage s ~id mesh ~rel bi share =
  (match share with Some g -> Runtime.load_batch s.wrt ~rel g | None -> ());
  let block, items =
    match (List.assoc_opt rel s.wplans, List.assoc_opt rel s.whoist) with
    | Some blocks, Some hoists when bi >= 0 && bi < Array.length blocks ->
        (blocks.(bi), hoists.(bi))
    | _ ->
        failwith (Printf.sprintf "divm_node worker: no block %d for %s" bi rel)
  in
  let o0 = Runtime.ops s.wrt in
  let wall0 = Unix.gettimeofday () in
  List.iter (fun (label, slot, f) -> wexec s ~label ~slot f) block;
  let sr_ops = Runtime.ops s.wrt - o0 in
  let sr_wall = Unix.gettimeofday () -. wall0 in
  let shuffles =
    List.filter_map
      (function HShuffle (t, k, src) -> Some (t, k, src) | HGather _ -> None)
      items
  in
  let sr_shuffles =
    match (shuffles, mesh) with
    | [], _ -> []
    | _, Some m -> mesh_shuffle s m shuffles
    | _, None ->
        failwith "divm_node worker: mesh transfer before the mesh handshake"
  in
  let sr_gathers =
    List.filter_map
      (function
        | HGather (src, replicated) ->
            Some
              (Protocol.encode_gmr
                 (if replicated && id <> 0 then Gmr.create ~size:1 ()
                  else Runtime.map_contents s.wrt src))
        | HShuffle _ -> None)
      items
  in
  Protocol.Stage_done { sr_ops; sr_wall; sr_shuffles; sr_gathers }

let serve ~id fd =
  let state = ref None in
  let st () =
    match !state with
    | Some s -> s
    | None -> failwith "divm_node worker: message before Init"
  in
  let mesh = ref None in
  let running = ref true in
  while !running do
    match Protocol.read_msg fd with
    | exception End_of_file -> running := false
    | msg, _ ->
        let reply =
          match msg with
          | Protocol.Init s ->
              let dp : Dprog.t = Marshal.from_string s 0 in
              state := Some (build_wstate dp);
              Protocol.Ack
          | Protocol.Stage (rel, bi, share) ->
              run_stage (st ()) ~id !mesh ~rel bi share
          | Protocol.Pull_map name ->
              Protocol.Map_contents (Runtime.map_contents (st ()).wrt name)
          | Protocol.Deliver (name, g) ->
              let s = st () in
              (* a delivery replaces the destination; replay in slot
                 order: the decoded GMR preserves the sender's buffer
                 order, which is the order the simulator delivers in.
                 Any reordering here would permute the transient's slots
                 and perturb downstream float summation, breaking
                 bit-identity with the simulator. *)
              Runtime.clear_map s.wrt name;
              Gmr.iter (fun tup m -> Runtime.add_to_map s.wrt name tup m) g;
              Protocol.Ack
          | Protocol.Start_telemetry (profile, trace) ->
              Prof.set_enabled profile;
              Obs.set_tracing trace;
              w_last_snap := Obs.snapshot ();
              Protocol.Ack
          | Protocol.Pull_telemetry ->
              Protocol.Telemetry (collect_telemetry ())
          | Protocol.Peers paths ->
              (match !mesh with Some m -> mesh_close m | None -> ());
              mesh := Some (mesh_bind ~id paths);
              Protocol.Ack
          | Protocol.Mesh_connect ->
              (match !mesh with
              | Some m -> mesh_connect m
              | None -> failwith "divm_node worker: Mesh_connect before Peers");
              let s = st () in
              s.whoist <- hoists_of s.wdp ~mesh:true;
              Protocol.Ack
          | Protocol.Shutdown ->
              running := false;
              Protocol.Ack
          | Protocol.Hello _ | Protocol.Ack | Protocol.Map_contents _
          | Protocol.Telemetry _ | Protocol.Mesh_data _ | Protocol.Stage_done _
            ->
              failwith "divm_node worker: unexpected coordinator message"
        in
        ignore (Protocol.write_msg fd reply)
  done;
  match !mesh with Some m -> mesh_close m | None -> ()

let worker_main ~socket ~id =
  ignore_sigpipe ();
  let fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  let rec connect tries =
    try Unix.connect fd (Unix.ADDR_UNIX socket)
    with Unix.Unix_error ((Unix.ENOENT | Unix.ECONNREFUSED), _, _)
    when tries > 0 ->
      Unix.sleepf 0.05;
      connect (tries - 1)
  in
  connect 100;
  ignore (Protocol.write_msg fd (Protocol.Hello id));
  serve ~id fd;
  (try Unix.close fd with _ -> ())

(* -------------------------------------------------------------- *)
(* Coordinator                                                     *)
(* -------------------------------------------------------------- *)

type transfer = {
  tname : string;
  tkind : Dprog.transfer_kind;
  key : int array;
  source : string;
  src_loc : Loc.t;
  dst_loc : Loc.t;
  tslot : int;
}

type item =
  | NDriver of string * int * (unit -> unit)
  | NTransfer of transfer * placement

type nblock =
  | BLocal of item list
  | BDist of int * int (* block index within the trigger, profiler slot *)

type conn = { fd : Unix.file_descr; pid : int option }

type t = {
  cfg : config;
  dprog : Dprog.t;
  driver : Runtime.t;
  conns : conn array;
  plans : (string * nblock list) list;
  loc : string -> Loc.t;
  delta_at_workers : bool;
  mutable wire : int; (* actual socket bytes, current batch *)
  mutable round_trips : int; (* request/reply barriers since create *)
  mutable alive : bool;
  mutable telem_started : bool; (* Start_telemetry sent to every worker *)
  offsets : float array; (* estimated worker clock minus ours, seconds *)
  rtts : float array; (* best pull round-trip so far, per worker *)
  wops : Obs.Counter.t array; (* divm_node_worker_ops_total{worker=i} *)
  wstage : Obs.Histogram.t array; (* divm_node_stage_seconds{worker=i} *)
  mlinks : Obs.Counter.t array array;
      (* divm_node_mesh_bytes_total{src=i,dst=j}; empty under Star *)
}

let workers t = t.cfg.workers
let worker_pids t = Array.to_list (Array.map (fun c -> c.pid) t.conns)

(* A dead socket alone is an opaque decode/EOF failure; the child's exit
   status says *why*. Poll briefly with WNOHANG — the SIGKILL/exit that
   killed the socket races our read of it. *)
let worker_fate t wi =
  match t.conns.(wi).pid with
  | None -> None
  | Some pid ->
      let rec poll tries =
        match Unix.waitpid [ Unix.WNOHANG ] pid with
        | 0, _ ->
            if tries <= 0 then None
            else begin
              Unix.sleepf 0.05;
              poll (tries - 1)
            end
        | _, Unix.WEXITED n -> Some (Printf.sprintf "exited %d" n)
        | _, Unix.WSIGNALED n -> Some (Printf.sprintf "signaled %d" n)
        | _, Unix.WSTOPPED n -> Some (Printf.sprintf "stopped %d" n)
        | exception Unix.Unix_error (Unix.ECHILD, _, _) -> None
      in
      poll 10

let fail_worker t wi exn =
  let fate =
    match worker_fate t wi with
    | Some f -> Printf.sprintf "(worker %d, %s)" wi f
    | None -> Printf.sprintf "(worker %d, still running)" wi
  in
  failwith
    (Printf.sprintf "divm_node: %s connection failed mid-batch: %s" fate
       (Printexc.to_string exn))

let send t wi msg =
  try t.wire <- t.wire + Protocol.write_msg t.conns.(wi).fd msg with
  | (Protocol.Error _ | Unix.Unix_error _ | End_of_file) as e ->
      fail_worker t wi e

let recv t wi =
  match Protocol.read_msg t.conns.(wi).fd with
  | m, n ->
      t.wire <- t.wire + n;
      m
  | exception ((Protocol.Error _ | Unix.Unix_error _ | End_of_file) as e) ->
      fail_worker t wi e

(* The one place a coordinator request/reply barrier happens, and so the
   one place it is counted: [req wi] goes to every worker (or only to
   [worker]), then each reply is read in worker order. One barrier is
   one round trip however many workers it addresses. *)
let round_trip ?worker t req =
  t.round_trips <- t.round_trips + 1;
  Obs.Counter.incr m_round_trips;
  match worker with
  | Some wi ->
      send t wi (req wi);
      [| recv t wi |]
  | None ->
      Array.iteri (fun wi _ -> send t wi (req wi)) t.conns;
      Array.init (Array.length t.conns) (fun wi -> recv t wi)

let broadcast t msg =
  Array.iteri
    (fun wi m ->
      match m with
      | Protocol.Ack -> ()
      | _ -> failwith (Printf.sprintf "divm_node: worker %d: expected Ack" wi))
    (round_trip t (fun _ -> msg))

let contents_of wi = function
  | Protocol.Map_contents g -> g
  | _ ->
      failwith (Printf.sprintf "divm_node: worker %d: expected Map_contents" wi)

(* ---- worker process spawning ---- *)

let discover_exe cfg =
  let candidates =
    (match cfg.worker_exe with Some p -> [ p ] | None -> [])
    @ (match Sys.getenv_opt "DIVM_NODE_EXE" with Some p -> [ p ] | None -> [])
    @
    let dir = Filename.dirname Sys.executable_name in
    let sibling_bin = Filename.concat (Filename.dirname dir) "bin" in
    [
      Filename.concat dir "divm_node.exe";
      Filename.concat dir "divm_node";
      Filename.concat sibling_bin "divm_node.exe";
      Filename.concat sibling_bin "divm_node";
    ]
  in
  List.find_opt Sys.file_exists candidates

let socket_counter = ref 0

let fresh_socket_path cfg =
  incr socket_counter;
  let dir =
    match cfg.socket_dir with
    | Some d -> d
    | None -> Filename.get_temp_dir_name ()
  in
  Filename.concat dir
    (Printf.sprintf "divm_node_%d_%d.sock" (Unix.getpid ()) !socket_counter)

(* Exec-based spawning: the primary mechanism. Workers are fresh
   single-domain processes of the [divm_node] binary, immune to the
   fork-after-domain-spawn deadlock of OCaml 5 runtimes. *)
let spawn_exec exe cfg =
  let path = fresh_socket_path cfg in
  let listener = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  Unix.set_close_on_exec listener;
  (try Unix.unlink path with _ -> ());
  Unix.bind listener (Unix.ADDR_UNIX path);
  Unix.listen listener cfg.workers;
  let pids =
    Array.init cfg.workers (fun wi ->
        Unix.create_process exe
          [| exe; "--worker"; "--socket"; path; "--id"; string_of_int wi |]
          Unix.stdin Unix.stdout Unix.stderr)
  in
  let conns = Array.make cfg.workers None in
  let fail msg =
    Array.iter (fun pid -> try Unix.kill pid Sys.sigkill with _ -> ()) pids;
    Array.iter
      (function Some fd -> ( try Unix.close fd with _ -> ()) | None -> ())
      conns;
    (try Unix.close listener with _ -> ());
    (try Unix.unlink path with _ -> ());
    failwith ("divm_node: " ^ msg)
  in
  for _ = 1 to cfg.workers do
    (match Unix.select [ listener ] [] [] 30. with
    | [], _, _ -> fail "worker did not connect within 30s"
    | _ -> ());
    let fd, _ = Unix.accept listener in
    match Protocol.read_msg fd with
    | Protocol.Hello wid, _ when wid >= 0 && wid < cfg.workers ->
        if conns.(wid) <> None then
          fail (Printf.sprintf "worker %d connected twice" wid);
        conns.(wid) <- Some fd
    | _ -> fail "bad handshake from worker"
    | exception e -> fail ("handshake failed: " ^ Printexc.to_string e)
  done;
  (try Unix.close listener with _ -> ());
  (try Unix.unlink path with _ -> ());
  Array.mapi
    (fun wi c ->
      match c with
      | Some fd -> { fd; pid = Some pids.(wi) }
      | None -> fail "missing worker connection" (* unreachable *))
    conns

(* Fork fallback for environments without the worker binary (e.g. a
   toplevel). Only safe before any Par pool domain exists: forking a
   multi-domain OCaml 5 process leaves the child's stop-the-world
   machinery waiting on domains that did not survive the fork. *)
let spawn_fork cfg =
  if Par.spawned_domains () > 0 then
    failwith
      "divm_node: no divm_node worker executable found and domains are \
       already spawned (fork unsafe); set DIVM_NODE_EXE or config.worker_exe";
  let parent_ends = ref [] in
  Array.init cfg.workers (fun wi ->
      let parent_fd, child_fd =
        Unix.socketpair Unix.PF_UNIX Unix.SOCK_STREAM 0
      in
      match Unix.fork () with
      | 0 ->
          (* Child: drop every parent-side descriptor, serve, hard-exit
             (no at_exit: the pool shutdown hook is the parent's). *)
          List.iter (fun fd -> try Unix.close fd with _ -> ()) !parent_ends;
          (try Unix.close parent_fd with _ -> ());
          ignore_sigpipe ();
          let code =
            try
              ignore (Protocol.write_msg child_fd (Protocol.Hello wi));
              serve ~id:wi child_fd;
              0
            with e ->
              prerr_endline ("divm_node worker: " ^ Printexc.to_string e);
              1
          in
          Unix._exit code
      | pid ->
          (try Unix.close child_fd with _ -> ());
          parent_ends := parent_fd :: !parent_ends;
          { fd = parent_fd; pid = Some pid })

let create ?(config = default_config) (dp : Dprog.t) =
  if config.workers < 1 then invalid_arg "Node.create: workers must be >= 1";
  ignore_sigpipe ();
  let conns =
    match discover_exe config with
    | Some exe -> spawn_exec exe config
    | None -> spawn_fork config
  in
  Array.iter
    (fun c ->
      (* Bounded coordinator waits: a wedged worker fails the batch
         instead of hanging a CI job. *)
      try Unix.setsockopt_float c.fd Unix.SO_RCVTIMEO 120. with _ -> ())
    conns;
  let t0 =
    {
      cfg = config;
      dprog = dp;
      driver = Runtime.create ~domains:1 (Dprog.compute_prog dp);
      conns;
      plans = [];
      loc = loc_index dp.locs;
      delta_at_workers = false;
      wire = 0;
      round_trips = 0;
      alive = true;
      telem_started = false;
      offsets = Array.make config.workers 0.;
      rtts = Array.make config.workers infinity;
      (* Per-worker labeled instruments, registered up front so a scrape
         of /metrics shows every worker from the first batch on. *)
      wops =
        Array.init config.workers (fun wi ->
            Obs.Counter.make
              (Obs.with_labels "divm_node_worker_ops_total"
                 [ ("worker", string_of_int wi) ]));
      wstage =
        Array.init config.workers (fun wi ->
            Obs.Histogram.make
              (Obs.with_labels "divm_node_stage_seconds"
                 [ ("worker", string_of_int wi) ]));
      (* Per-link wire counters, off-diagonal only: a worker never puts
         its own share on a socket. Diagonal cells exist (the matrix is
         square for direct indexing) but stay out of the registry. *)
      mlinks =
        (if config.shuffle = Mesh && config.workers > 1 then
           Array.init config.workers (fun s ->
               Array.init config.workers (fun d ->
                   Obs.Counter.make ~register:(s <> d)
                     (Obs.with_labels "divm_node_mesh_bytes_total"
                        [ ("src", string_of_int s); ("dst", string_of_int d) ])))
         else [||]);
    }
  in
  (* Ship the program; workers compile the same statements we do and
     derive the same hoisting plan. *)
  broadcast t0 (Protocol.Init (Marshal.to_string dp []));
  (* Mesh handshake: distribute every worker's listener path, barrier on
     the binds (so each listen backlog exists before any peer connects),
     then tell everyone to wire up. *)
  (if config.shuffle = Mesh then begin
     broadcast t0
       (Protocol.Peers
          (Array.init config.workers (fun _ -> fresh_socket_path config)));
     broadcast t0 Protocol.Mesh_connect
   end);
  let compile_block trigger bi nstages (b : Dprog.block) bp =
    match (b.bmode, bp) with
    | Dprog.MDist, PDist _ ->
        let label = Printf.sprintf "stage:%d" nstages in
        BDist (bi, Prof.slot ~trigger ~label)
    | Dprog.MLocal, PLocal ps ->
        BLocal
          (List.map2
             (fun d p ->
               match d with
               | Dprog.Transfer { tname; tkind; key; source } ->
                   NTransfer
                     ( {
                         tname;
                         tkind;
                         key;
                         source;
                         src_loc = t0.loc source;
                         dst_loc = t0.loc tname;
                         tslot = Prof.slot ~trigger ~label:("transfer:" ^ tname);
                       },
                       p )
               | Dprog.Compute s ->
                   let label = "driver:" ^ s.target in
                   NDriver
                     ( label,
                       Prof.slot ~trigger ~label,
                       List.hd (Runtime.compile_stmts t0.driver [ s ]) ))
             b.bstmts ps)
    | _ -> invalid_arg "Node.create: plan does not match the block modes"
  in
  let hplan = plan dp ~mesh:(config.shuffle = Mesh) in
  let plans =
    List.map
      (fun (tr : Dprog.dtrigger) ->
        let nstages = ref 0 in
        let bplans = Array.of_list (List.assoc tr.drelation hplan) in
        ( tr.drelation,
          List.mapi
            (fun bi (b : Dprog.block) ->
              if b.bmode = Dprog.MDist then incr nstages;
              compile_block tr.drelation bi !nstages b bplans.(bi))
            tr.blocks ))
      dp.dtriggers
  in
  let delta_at_workers =
    List.exists
      (fun (m : Divm_compiler.Prog.map_decl) ->
        m.mkind = Divm_compiler.Prog.Transient
        && Divm_calc.Calc.has_deltas m.definition
        && t0.loc m.mname <> Loc.Local)
      dp.base.maps
  in
  Obs.Gauge.set g_workers (float_of_int config.workers);
  { t0 with plans; delta_at_workers }

(* ---- transfers ---- *)

type net = {
  mutable total_bytes : int;
  mutable into_node : int array;
  mutable into_driver : int;
}

let tuple_bytes = Costmodel.tuple_bytes

(* Partition the source contents ([(origin, gmr)] in the simulator's
   worker order; origin -1 is the driver, -2 a replicated copy) into the
   destination: the driver map for a gather, per-worker [Deliver]
   buffers otherwise. The modeled byte accounting is the simulator's
   exactly — origin = destination moves are free in the model even
   though the star topology really sends them over two socket hops; the
   difference is precisely what [wire_bytes] vs [bytes_shuffled]
   exposes. Returns the modeled serialized bytes. *)
let distribute_sources t net (tr : transfer) sources =
  let w = Array.length t.conns in
  let to_workers = tr.dst_loc <> Loc.Local in
  if not to_workers then Runtime.clear_map t.driver tr.tname;
  (* Per-destination out-buffers: duplicates pre-sum at the coordinator in
     source-iteration order, so the float each worker finally stores is
     bit-identical to the simulator's in-order adds into a cleared map. *)
  let outs = Array.init w (fun _ -> Gmr.create ()) in
  let deliver_worker origin wi tup m =
    Gmr.add outs.(wi) tup m;
    if origin <> wi then begin
      let b = tuple_bytes tup in
      net.total_bytes <- net.total_bytes + b;
      net.into_node.(wi) <- net.into_node.(wi) + b
    end
  in
  let deliver_driver origin tup m =
    Runtime.add_to_map t.driver tr.tname tup m;
    if origin <> -1 then begin
      let b = tuple_bytes tup in
      net.total_bytes <- net.total_bytes + b;
      net.into_driver <- net.into_driver + b
    end
  in
  let ser_bytes = ref 0 in
  List.iter
    (fun (origin, contents) ->
      Gmr.iter
        (fun tup m ->
          ser_bytes := !ser_bytes + tuple_bytes tup;
          match tr.tkind with
          | Dprog.Gather -> deliver_driver origin tup m
          | Dprog.Scatter | Dprog.Repart ->
              if Array.length tr.key = 0 then
                for wi = 0 to w - 1 do
                  deliver_worker origin wi tup m
                done
              else
                let sub = Divm_ring.Vtuple.project tup tr.key in
                deliver_worker origin
                  (Divm_ring.Vtuple.hash sub mod w)
                  tup m)
        contents)
    sources;
  (* [Deliver] replaces the destination, so there is no separate clear *)
  if to_workers then
    Array.iteri
      (fun wi m ->
        match m with
        | Protocol.Ack -> ()
        | _ -> failwith (Printf.sprintf "divm_node: worker %d: expected Ack" wi))
      (round_trip t (fun wi -> Protocol.Deliver (tr.tname, outs.(wi))));
  !ser_bytes

(* A transfer the plan leaves at its position on the star path: pull
   the source partitions (in the simulator's worker order) and
   distribute them through the coordinator. *)
let run_transfer t net (tr : transfer) =
  let sources =
    match tr.src_loc with
    | Loc.Local -> [ (-1, Runtime.map_contents t.driver tr.source) ]
    | Loc.Replicated ->
        [
          ( -2,
            contents_of 0
              (round_trip ~worker:0 t (fun _ -> Protocol.Pull_map tr.source)).(0)
          );
        ]
    | Loc.Dist _ | Loc.Random ->
        Array.to_list
          (Array.mapi
             (fun wi m -> (wi, contents_of wi m))
             (round_trip t (fun _ -> Protocol.Pull_map tr.source)))
  in
  distribute_sources t net tr sources

(* How many times a shuffled byte crosses a socket, feeding the a-priori
   wire predictor. Star relays through the coordinator: one crossing to
   pull from a remote source, then one per delivery (a broadcast fans out
   to every worker). Mesh ships direct: one crossing per remote
   destination — a keyed repartition keeps ~1/w of the bytes home, which
   the per-byte estimate rounds to one crossing. *)
let predicted_crossings t (tr : transfer) ~mesh =
  let w = t.cfg.workers in
  let fanout =
    if Array.length tr.key = 0 && tr.tkind <> Dprog.Gather then w else 1
  in
  if mesh then max 1 (fanout - 1)
  else
    match tr.tkind with
    | Dprog.Gather -> 1
    | Dprog.Scatter | Dprog.Repart ->
        let src_remote =
          match tr.src_loc with
          | Loc.Dist _ | Loc.Random | Loc.Replicated -> true
          | Loc.Local -> false
        in
        (if src_remote then 1 else 0) + fanout

(* Fold one mesh transfer's per-worker reports into the same
   modeled-byte ledger the star path and the simulator fill — the
   workers apply the simulator's free-when-origin-equals-destination
   rule locally, so [net] ends up integer-identical and the modeled
   latency downstream is bit-identical. Actual socket bytes land in
   [t.wire] and the per-link counters instead. Returns (modeled ser
   bytes, (src, dst, wire bytes) per active link). *)
let fold_shuffle t net (stats : Protocol.shuffle_stat array) =
  let w = Array.length t.conns in
  let ser = ref 0 in
  let links = ref [] in
  Array.iteri
    (fun src (st : Protocol.shuffle_stat) ->
      if Array.length st.ss_modeled <> w || Array.length st.ss_sent <> w then
        failwith
          (Printf.sprintf
             "divm_node: worker %d: shuffle stat arity mismatch (%d/%d \
              destinations, %d workers)"
             src
             (Array.length st.ss_modeled)
             (Array.length st.ss_sent) w);
      ser := !ser + st.ss_ser;
      Array.iteri
        (fun dst b ->
          if dst <> src && b > 0 then begin
            net.total_bytes <- net.total_bytes + b;
            net.into_node.(dst) <- net.into_node.(dst) + b
          end)
        st.ss_modeled;
      Array.iteri
        (fun dst b ->
          if dst <> src && b > 0 then begin
            t.wire <- t.wire + b;
            Obs.Counter.add t.mlinks.(src).(dst) b;
            links := (src, dst, b) :: !links
          end)
        st.ss_sent)
    stats;
  (!ser, List.rev !links)

(* ---- telemetry plane (coordinator side) ---- *)

(* Lazily arm the workers' observers: collection can be switched on by
   the CLI layer after [create] (profile/trace activation happens once
   the engine exists), so the first batch that runs under an armed
   collector ships [Start_telemetry] with whatever is enabled then. *)
let maybe_start_telemetry t =
  if (not t.telem_started) && Obs.collection () then begin
    t.telem_started <- true;
    broadcast t (Protocol.Start_telemetry (Prof.enabled (), Obs.tracing ()))
  end

(* One pull per worker, sequentially: the request/reply timestamps double
   as a clock-offset probe (offset = worker_now - midpoint), and the
   estimate from the smallest round-trip seen so far wins — the classic
   NTP bound: the error is at most rtt/2. The offset is stored per pid
   and applied uniformly at export, so refining it between pulls can
   shift but never reorder a worker's own timeline. *)
let pull_telemetry t =
  Array.iteri
    (fun wi _ ->
      let t0 = Unix.gettimeofday () in
      match (round_trip ~worker:wi t (fun _ -> Protocol.Pull_telemetry)).(0) with
      | Protocol.Telemetry tm ->
          let t1 = Unix.gettimeofday () in
          let rtt = t1 -. t0 in
          if rtt < t.rtts.(wi) then begin
            t.rtts.(wi) <- rtt;
            t.offsets.(wi) <- tm.Protocol.t_now -. ((t0 +. t1) /. 2.)
          end;
          let wl = [ ("worker", string_of_int wi) ] in
          Obs.ingest ~labels:wl tm.Protocol.t_snap;
          List.iter
            (fun (r : Prof.row) ->
              Prof.merge ~trigger:r.r_trigger
                ~label:(Printf.sprintf "%s@w%d" r.r_label wi)
                r)
            tm.Protocol.t_slots;
          if tm.Protocol.t_spans <> [] then
            Obs.add_remote_events ~pid:(wi + 2)
              ~pname:(Printf.sprintf "worker %d" wi)
              ~offset:t.offsets.(wi) tm.Protocol.t_spans
      | _ ->
          failwith
            (Printf.sprintf "divm_node: worker %d: expected Telemetry" wi))
    t.conns

(* ---- batch execution ---- *)

(* The last [Stage] round trip's replies, indexed [worker][k]: what the
   following local block's hoisted items fold in at their positions. *)
type pending = {
  pshuffles : Protocol.shuffle_stat array array;
  pgathers : string array array;
}

let hoisted_item wi k a =
  if k < Array.length a then a.(k)
  else
    failwith
      (Printf.sprintf "divm_node: worker %d: stage reply lacks hoisted item %d"
         wi k)

let section_bytes sec = 4 + String.length sec

let apply_batch t ~rel batch =
  if not t.alive then failwith "divm_node: engine is shut down";
  let w = Array.length t.conns in
  let batch_wall0 = Unix.gettimeofday () in
  t.wire <- 0;
  let rt0 = t.round_trips in
  maybe_start_telemetry t;
  Obs.span ("node:" ^ rel) @@ fun () ->
  (* Same sharding as the simulator: round-robin over workers when the
     delta pre-aggregations live there, whole batch to the driver
     otherwise (the workers then load an empty share). *)
  let shares =
    if t.delta_at_workers then begin
      let shares = Array.init w (fun _ -> Gmr.create ()) in
      let i = ref 0 in
      Gmr.iter
        (fun tup m ->
          Gmr.add shares.(!i mod w) tup m;
          incr i)
        batch;
      Runtime.load_batch t.driver ~rel (Gmr.create ());
      shares
    end
    else begin
      Runtime.load_batch t.driver ~rel batch;
      Array.make w (Gmr.create ())
    end
  in
  (* The shares ride on the batch's first Stage frame, then are dropped. *)
  let shares = ref (Some shares) in
  let stage bi =
    let sh = !shares in
    shares := None;
    Array.mapi
      (fun wi m ->
        match m with
        | Protocol.Stage_done r -> r
        | _ ->
            failwith
              (Printf.sprintf "divm_node: worker %d: expected Stage_done" wi))
      (round_trip t (fun wi ->
           Protocol.Stage (rel, bi, Option.map (fun a -> a.(wi)) sh)))
  in
  let blocks =
    match List.assoc_opt rel t.plans with
    | Some b -> b
    | None -> invalid_arg ("Node.apply_batch: no trigger for " ^ rel)
  in
  let net = { total_bytes = 0; into_node = Array.make w 0; into_driver = 0 } in
  let latency = ref 0. in
  let stages = ref 0 in
  let worker_ops = Array.make w 0 in
  let max_worker_ops = ref 0 in
  let driver_ops0 = Runtime.ops t.driver in
  let pending_max_into = ref 0 in
  let stats = ref [] in
  let pending = ref None in
  (* One transfer, whichever way it ran: fold its stats into the same
     per-transfer row, modeled latency and profiler slot. *)
  let run_item_transfer (tr : transfer) p =
    let wall0 = Unix.gettimeofday () in
    let wire0 = t.wire in
    let bytes_before = net.total_bytes in
    let before_max = Array.fold_left max net.into_driver net.into_node in
    let ser, mesh, walls, links, swire, wall =
      match p with
      | Walk ->
          let ser = run_transfer t net tr in
          (ser, false, [||], [], t.wire - wire0, Unix.gettimeofday () -. wall0)
      | Hoisted k -> (
          let pd =
            match !pending with
            | Some pd -> pd
            | None -> failwith "divm_node: hoisted transfer without a stage"
          in
          match tr.tkind with
          | Dprog.Gather ->
              let secs =
                Array.mapi (fun wi a -> hoisted_item wi k a) pd.pgathers
              in
              let sources =
                if tr.src_loc = Loc.Replicated then
                  [ (-2, Protocol.decode_gmr secs.(0)) ]
                else
                  Array.to_list
                    (Array.mapi (fun wi sec -> (wi, Protocol.decode_gmr sec)) secs)
              in
              (* gathered contents live only until their fold *)
              Array.iter (fun a -> a.(k) <- "") pd.pgathers;
              let ser = distribute_sources t net tr sources in
              ( ser,
                false,
                [||],
                [],
                Array.fold_left (fun acc sec -> acc + section_bytes sec) 0 secs,
                Unix.gettimeofday () -. wall0 )
          | Dprog.Scatter | Dprog.Repart ->
              let stats =
                Array.mapi (fun wi a -> hoisted_item wi k a) pd.pshuffles
              in
              let ser, links = fold_shuffle t net stats in
              let walls =
                Array.map (fun (st : Protocol.shuffle_stat) -> st.ss_wall) stats
              in
              ( ser,
                true,
                walls,
                links,
                t.wire - wire0,
                Array.fold_left Float.max 0. walls ))
    in
    if Prof.enabled () then
      Prof.add tr.tslot ~ops:0 ~probes:0 ~misses:0 ~scanned:0 ~svscan:0 ~svsel:0
        ~bytes:(net.total_bytes - bytes_before)
        ~wall;
    let after_max = Array.fold_left max net.into_driver net.into_node in
    pending_max_into := max !pending_max_into (after_max - before_max);
    let dt =
      Costmodel.transfer_latency t.cfg.cost ~ser_bytes:ser
        ~max_into:(after_max - before_max)
    in
    latency := !latency +. dt;
    stats :=
      {
        sname = "transfer:" ^ tr.tname;
        predicted = dt;
        measured = wall;
        sbytes = net.total_bytes - bytes_before;
        swire;
        spwire =
          Costmodel.predicted_wire_bytes
            ~crossings:(predicted_crossings t tr ~mesh)
            ~workers:w ~ser_bytes:ser;
        swalls = walls;
        slinks = links;
      }
      :: !stats;
    if Obs.tracing () then begin
      Obs.set_attr "modeled_ms" (Printf.sprintf "%.6f" (dt *. 1e3));
      Obs.set_attr "measured_ms" (Printf.sprintf "%.6f" (wall *. 1e3));
      Obs.set_attr "bytes" (string_of_int (net.total_bytes - bytes_before))
    end
  in
  List.iter
    (fun nb ->
      match nb with
      | BLocal items ->
          List.iter
            (fun it ->
              match it with
              | NDriver (lbl, slot, f) ->
                  Runtime.run_attributed t.driver ~label:lbl ~slot f
              | NTransfer (tr, p) ->
                  Obs.span ("transfer:" ^ tr.tname) (fun () ->
                      run_item_transfer tr p))
            items
      | BDist (bi, slot) ->
          incr stages;
          let lbl = Printf.sprintf "stage:%d" !stages in
          Obs.span lbl (fun () ->
              let wall0 = Unix.gettimeofday () in
              let wire0 = t.wire in
              (* Broadcast, then barrier on every worker's reply — the
                 workers execute their partitions genuinely in parallel,
                 then exchange every hoisted mesh transfer directly. *)
              let replies = stage bi in
              let rt_wall = Unix.gettimeofday () -. wall0 in
              let pd =
                {
                  pshuffles =
                    Array.map
                      (fun (r : Protocol.stage_reply) ->
                        Array.of_list r.sr_shuffles)
                      replies;
                  pgathers =
                    Array.map
                      (fun (r : Protocol.stage_reply) ->
                        Array.of_list r.sr_gathers)
                      replies;
                }
              in
              pending := Some pd;
              (* The hoisted transfers' rows claim their own share of the
                 round trip: each mesh transfer its slowest worker's
                 wall, each gather its sections of the replies. *)
              let nshuffles =
                Array.fold_left (fun n a -> max n (Array.length a)) 0
                  pd.pshuffles
              in
              let hoisted_wall = ref 0. in
              for k = 0 to nshuffles - 1 do
                hoisted_wall :=
                  !hoisted_wall
                  +. Array.fold_left
                       (fun m a ->
                         if k < Array.length a then
                           Float.max m a.(k).Protocol.ss_wall
                         else m)
                       0. pd.pshuffles
              done;
              let gather_wire =
                Array.fold_left
                  (Array.fold_left (fun acc sec -> acc + section_bytes sec))
                  0 pd.pgathers
              in
              let wall = Float.max 0. (rt_wall -. !hoisted_wall) in
              let deltas =
                Array.map (fun (r : Protocol.stage_reply) -> r.sr_ops) replies
              in
              let walls =
                Array.map (fun (r : Protocol.stage_reply) -> r.sr_wall) replies
              in
              let max_ops = ref 0 in
              Array.iteri
                (fun wi d ->
                  worker_ops.(wi) <- worker_ops.(wi) + d;
                  Obs.Counter.add t.wops.(wi) d;
                  Obs.Histogram.observe t.wstage.(wi) walls.(wi);
                  max_ops := max !max_ops d)
                deltas;
              (* Straggler ratio over the workers' own measured walls —
                 socket turnaround excluded, so a loaded coordinator does
                 not read as a slow worker. *)
              (if w > 1 then
                 let sorted = Array.copy walls in
                 Array.sort compare sorted;
                 let median =
                   if w land 1 = 1 then sorted.(w / 2)
                   else (sorted.((w / 2) - 1) +. sorted.(w / 2)) /. 2.
                 in
                 if median > 0. then
                   Obs.Histogram.observe h_straggler (sorted.(w - 1) /. median));
              max_worker_ops := !max_worker_ops + !max_ops;
              if Prof.enabled () then
                Prof.add slot
                  ~ops:(Array.fold_left ( + ) 0 deltas)
                  ~probes:0 ~misses:0 ~scanned:0 ~svscan:0 ~svsel:0 ~bytes:0
                  ~wall;
              let dt =
                Costmodel.stage_latency t.cfg.cost ~workers:w ~max_ops:!max_ops
                  ~pending_max_into:!pending_max_into
              in
              pending_max_into := 0;
              latency := !latency +. dt;
              stats :=
                {
                  sname = lbl;
                  predicted = dt;
                  measured = wall;
                  sbytes = 0;
                  swire = t.wire - wire0 - gather_wire;
                  spwire = 0;
                  swalls = walls;
                  slinks = [];
                }
                :: !stats;
              if Obs.tracing () then begin
                Obs.set_attr "modeled_ms" (Printf.sprintf "%.6f" (dt *. 1e3));
                Obs.set_attr "measured_ms" (Printf.sprintf "%.6f" (wall *. 1e3));
                Obs.set_attr "max_worker_ops" (string_of_int !max_ops);
                Obs.set_attr "workers" (string_of_int w)
              end))
    blocks;
  (* Ship the batch's telemetry once, after the last stage (outside every
     stage and transfer span, so pull traffic never pollutes their
     wire/wall accounting). *)
  if t.telem_started then pull_telemetry t;
  let driver_ops = Runtime.ops t.driver - driver_ops0 in
  let wall = Unix.gettimeofday () -. batch_wall0 in
  Obs.Counter.add m_bytes_shuffled net.total_bytes;
  Obs.Counter.add m_wire_bytes t.wire;
  Obs.Counter.add m_stages !stages;
  Obs.Counter.incr m_batches;
  Obs.Counter.add m_worker_ops (Array.fold_left ( + ) 0 worker_ops);
  Obs.Counter.add m_driver_ops driver_ops;
  if Obs.tracing () then begin
    Obs.set_attr "modeled_latency_ms" (Printf.sprintf "%.6f" (!latency *. 1e3));
    Obs.set_attr "stages" (string_of_int !stages);
    Obs.set_attr "bytes_shuffled" (string_of_int net.total_bytes);
    Obs.set_attr "wire_bytes" (string_of_int t.wire)
  end;
  {
    latency = !latency;
    wall;
    stages = !stages;
    round_trips = t.round_trips - rt0;
    bytes_shuffled = net.total_bytes;
    wire_bytes = t.wire;
    max_worker_ops = !max_worker_ops;
    driver_ops;
    stage_stats = List.rev !stats;
  }

(* ---- inspection ---- *)

let map_contents t name =
  if not t.alive then failwith "divm_node: engine is shut down";
  match t.loc name with
  | Loc.Local -> Runtime.map_contents t.driver name
  | Loc.Replicated ->
      contents_of 0 (round_trip ~worker:0 t (fun _ -> Protocol.Pull_map name)).(0)
  | Loc.Dist _ | Loc.Random ->
      let out = Gmr.create () in
      Array.iteri
        (fun wi m -> Gmr.union_into out (contents_of wi m))
        (round_trip t (fun _ -> Protocol.Pull_map name));
      out

let result t qname =
  match List.assoc_opt qname t.dprog.base.queries with
  | Some m -> map_contents t m
  | None -> invalid_arg ("Node.result: unknown query " ^ qname)

let shutdown t =
  if t.alive then begin
    t.alive <- false;
    (* Final drain: anything observed since the last stage barrier (or a
       collector armed after the last batch) still reaches the merged
       view before the workers go away. *)
    if Obs.collection () then begin
      (try maybe_start_telemetry t with _ -> ());
      if t.telem_started then try pull_telemetry t with _ -> ()
    end;
    Array.iter
      (fun c ->
        try ignore (Protocol.write_msg c.fd Protocol.Shutdown) with _ -> ())
      t.conns;
    Array.iter
      (fun c -> try ignore (Protocol.read_msg c.fd) with _ -> ())
      t.conns;
    Array.iter (fun c -> try Unix.close c.fd with _ -> ()) t.conns;
    Array.iter
      (fun c ->
        match c.pid with
        | Some pid -> ( try ignore (Unix.waitpid [] pid) with _ -> ())
        | None -> ())
      t.conns
  end
