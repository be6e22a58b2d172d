(** Wire protocol of the multi-process engine ({!Node}).

    Every message travels in one frame: a 4-byte big-endian payload
    length, then the payload — one tag byte followed by the body. The
    framing carries no addresses or version fields; it is the same shape a
    TCP transport would use, so moving off Unix domain sockets only
    changes how the file descriptors are obtained.

    A batch costs one coordinator round trip per distributed stage: the
    {!Stage} frame runs a block and the transfers hoisted behind it, and
    its {!Stage_done} reply carries everything the coordinator needs to
    finish the following local block. [Pull_map] and [Deliver] remain
    for transfers the hoisting plan leaves on the coordinator (scatters
    from driver or replicated maps, every repartition under the star
    topology, and any item the commute rule keeps in place) and for
    inspection.

    The data plane (batches, map contents, shuffle deliveries) is encoded
    by hand, not [Marshal]: values round-trip exactly (floats by their
    IEEE-754 bits), so a store filled through the wire is bit-identical
    to one filled in process — the property the simulator-equivalence
    qcheck in [test_node] relies on. The one exception is [Init], whose
    body is a marshaled {!Divm_dist.Dprog.t}: the distributed program is
    pure data (no closures) and both ends run the same binary.

    Decoding is strict: a frame longer than [max_frame], a payload that
    ends mid-field, an unknown tag, or trailing bytes after the message
    all raise {!Error} rather than yielding a partial message. *)

open Divm_storage
open Divm_obs

(** One telemetry pull's worth of worker-side observability state. The
    snapshot and slot rows are {e deltas} since the previous pull (the
    worker keeps the subtraction baseline); spans are the completed
    spans since the previous pull, stamped with the worker's own clock.
    [t_now] is the worker's [Unix.gettimeofday] at encode time — the
    coordinator combines it with its own send/receive timestamps to
    estimate the worker's clock offset. *)
type telem = {
  t_now : float;
  t_snap : Obs.snapshot;
  t_slots : Prof.row list;
  t_spans : Obs.event list;
}

(** One worker's report of a direct mesh transfer it just finished, the
    coordinator's only involvement in the data movement. [ss_modeled]
    and [ss_sent] are indexed by destination worker: [ss_modeled] is the
    cost model's byte accounting (origin = destination moves are free,
    exactly the simulator's rule), [ss_sent] the bytes of this
    transfer's section of the frame written to each peer socket (0 at
    the worker's own index; the first transfer of a stage also carries
    the frame header). [ss_ser] is the modeled serialized size of
    everything this worker shuffled out, and [ss_wall] the seconds its
    partition and apply took plus its byte share of the stage's
    exchange. *)
type shuffle_stat = {
  ss_ser : int;
  ss_modeled : int array;
  ss_sent : int array;
  ss_wall : float;
}

(** A worker's single reply to a {!Stage} frame. [sr_ops] and [sr_wall]
    are the record-op delta and self-measured wall of the stage's
    distributed block. [sr_shuffles] has one stat per hoisted mesh transfer and
    [sr_gathers] one encoded GMR section ({!encode_gmr}) per hoisted
    gather, both in plan order. A section is shipped pre-encoded so the
    coordinator charges each gather exactly the bytes of its own part of
    the reply. *)
type stage_reply = {
  sr_ops : int;
  sr_wall : float;
  sr_shuffles : shuffle_stat list;
  sr_gathers : string list;
}

type msg =
  | Hello of int
      (** worker id, first message after connecting — to the coordinator,
          and to an accepting peer on each mesh link *)
  | Init of string
      (** marshaled {!Divm_dist.Dprog.t}; the worker builds its runtime
          and derives the hoisting plan from it *)
  | Pull_map of string
  | Map_contents of Gmr.t  (** reply to [Pull_map] *)
  | Deliver of string * Gmr.t
      (** star-path delivery into a transient map: the worker clears the
          destination, then replays the buffer (it replaces, never adds
          to, what the map held) *)
  | Ack
  | Shutdown
  | Start_telemetry of bool * bool
      (** (profile, trace): enable the worker-side profiler and/or span
          tracer so subsequent pulls have something to ship *)
  | Pull_telemetry  (** coordinator requests a {!Telemetry} reply *)
  | Telemetry of telem  (** reply to [Pull_telemetry] *)
  | Peers of string array
      (** coordinator → worker: every worker's mesh listener socket path,
          indexed by worker id; the receiver binds its own entry *)
  | Mesh_connect
      (** coordinator → worker: establish the full connection mesh now
          (initiate to lower ids, accept from higher ids) *)
  | Mesh_data of int * string list
      (** worker → worker, on a mesh link: [(source worker id, sections)],
          one encoded pre-summed buffer ({!encode_gmr}) per mesh transfer
          of the stage in flight, in plan order. The destination maps are
          implied — the exchange is a synchronous barrier per {!Stage},
          so a frame can only belong to the stage in flight. The sender's
          slot order is preserved, so replay stays bit-identical. *)
  | Stage of string * int * Gmr.t option
      (** coordinator → worker, the one request of a distributed stage:
          [(trigger relation, block index, batch share)]. The worker runs
          the distributed block, then the items the hoisting plan moves
          out of the following local block — a plan both ends derive
          from the identical [Init] program: mesh transfers (all in one
          exchange) and gathers whose partitions ship back in the
          {!Stage_done} reply. The batch share rides on the batch's
          first stage only ([None] afterwards) and is loaded before the
          block runs. *)
  | Stage_done of stage_reply  (** reply to [Stage] *)

(** Malformed frame or payload. The message names the defect, and for a
    field-level failure also the frame's claimed message tag and payload
    length; a bad length prefix cites the would-be tag byte when one is
    available. *)
exception Error of string

(** Frames larger than this are rejected on both ends (64 MiB — far above
    any TPC-H batch, small enough to stop a corrupt length prefix from
    allocating the moon). *)
val max_frame : int

(** [encode m] is [m]'s payload (tag + body, no length prefix). *)
val encode : msg -> string

(** [decode s] parses a full payload. Raises {!Error} on unknown tags,
    truncated fields, or trailing bytes. *)
val decode : string -> msg

(** [encode_frame m] is the complete frame: length prefix + payload. *)
val encode_frame : msg -> string

(** [encode_gmr g] is [g]'s encoding as a standalone section, the unit
    [Mesh_data] and [Stage_done] carry. *)
val encode_gmr : Gmr.t -> string

(** A [Mesh_data] frame under construction: [mesh_frame ~src ~sections]
    starts one that will hold [sections] sections, [add_mesh_section]
    encodes the next one straight into the frame and returns the bytes it
    added (its length prefix included), and [finish_mesh_frame] returns
    the complete frame — the same bytes [encode_frame] would produce for
    the equivalent message, whose first [mesh_frame_header] bytes are the
    header. *)
type mesh_frame

val mesh_frame : src:int -> sections:int -> mesh_frame
val add_mesh_section : mesh_frame -> Gmr.t -> int
val finish_mesh_frame : mesh_frame -> string
val mesh_frame_header : int

(** [decode_gmr s] parses a whole section. Raises {!Error} like
    {!decode}, including on trailing bytes. *)
val decode_gmr : string -> Gmr.t

(** [decode_frame s] parses one complete frame and returns the message and
    the number of bytes consumed. Raises {!Error} when [s] is shorter
    than its own length prefix claims, or when the prefix exceeds
    [max_frame]. *)
val decode_frame : string -> msg * int

(** Blocking send of one framed message; returns bytes written (frame
    size, for wire accounting). *)
val write_msg : Unix.file_descr -> msg -> int

(** Blocking receive of one framed message; returns the message and bytes
    read. Raises {!Error} on EOF mid-frame or an oversized length, and
    [End_of_file] on EOF at a frame boundary (orderly peer exit). *)
val read_msg : Unix.file_descr -> msg * int
