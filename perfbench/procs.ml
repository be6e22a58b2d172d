(* What /proc says about this process and the worker processes it spawns. *)

(* /proc files report length 0, so read until end of file. *)
let read_file path =
  try
    let ic = open_in path in
    let buf = Buffer.create 4096 and chunk = Bytes.create 4096 in
    let rec go () =
      let n = input ic chunk 0 4096 in
      if n > 0 then (
        Buffer.add_subbytes buf chunk 0 n;
        go ())
    in
    go ();
    close_in ic;
    Some (Buffer.contents buf)
  with Sys_error _ -> None

(* [/proc/<pid>/stat]: the fields after the parenthesized command name,
   which may itself contain spaces. *)
let stat_fields pid =
  match read_file (Printf.sprintf "/proc/%d/stat" pid) with
  | None -> None
  | Some s -> (
      match String.rindex_opt s ')' with
      | None -> None
      | Some i ->
          Some
            (String.split_on_char ' '
               (String.trim (String.sub s (i + 1) (String.length s - i - 1)))))

(* Live children of this process (zombies included: an unreaped child is
   a leak). *)
let children () =
  let self = Unix.getpid () in
  Array.fold_left
    (fun acc d ->
      match int_of_string_opt d with
      | None -> acc
      | Some pid -> (
          match stat_fields pid with
          | Some (_state :: ppid :: _) when int_of_string_opt ppid = Some self
            ->
              pid :: acc
          | _ -> acc))
    []
    (try Sys.readdir "/proc" with Sys_error _ -> [||])

(* Whether [pid] still exists in any state, zombie included. *)
let exists pid = Sys.file_exists (Printf.sprintf "/proc/%d" pid)

(* Peak resident set ([VmHWM]) of [pid], in KiB; 0 once it has exited. *)
let hwm_kb pid =
  match read_file (Printf.sprintf "/proc/%d/status" pid) with
  | None -> 0
  | Some s ->
      List.fold_left
        (fun acc line ->
          match String.split_on_char ':' line with
          | [ "VmHWM"; v ] -> (
              match
                List.filter (( <> ) "") (String.split_on_char ' ' (String.trim v))
              with
              | n :: _ -> Option.value ~default:acc (int_of_string_opt n)
              | [] -> acc)
          | _ -> acc)
        0 (String.split_on_char '\n' s)
