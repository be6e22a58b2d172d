open Divm_calc
open Divm_compiler

type transfer_kind = Scatter | Repart | Gather

type dstmt =
  | Compute of Prog.stmt
  | Transfer of {
      tname : string;
      tkind : transfer_kind;
      key : int array;
      source : string;
    }

type mode = MLocal | MDist

type block = { bmode : mode; bstmts : dstmt list }
type dtrigger = { drelation : string; blocks : block list }
type t = { base : Prog.t; locs : Loc.catalog; dtriggers : dtrigger list }

let writes = function
  | Compute s -> s.Prog.target
  | Transfer { tname; _ } -> tname

let reads = function
  | Compute s -> Calc.map_refs s.Prog.rhs
  | Transfer { source; _ } -> [ source ]

let is_assign = function
  | Compute { Prog.op = Prog.Assign; _ } -> true
  | Transfer _ -> true (* transfers overwrite their destination *)
  | _ -> false

let mode_of locs = function
  | Transfer _ -> MLocal
  | Compute s -> (
      match Loc.find locs s.Prog.target with
      | Loc.Local -> MLocal
      | Loc.Dist _ | Loc.Replicated | Loc.Random -> MDist)

let commute s1 s2 =
  let w1 = writes s1 and w2 = writes s2 in
  (not (List.mem w1 (reads s2)))
  && (not (List.mem w2 (reads s1)))
  && (w1 <> w2 || not (is_assign s1 || is_assign s2))

(* --- Appendix C.3, transcribed --- *)

let blocks_commute b1 b2 =
  List.for_all (fun l -> List.for_all (fun r -> commute l r) b2.bstmts) b1.bstmts

let merge_into_head hd tl =
  List.fold_left
    (fun (b1, rhs) b2 ->
      if b1.bmode = b2.bmode && List.for_all (fun b -> blocks_commute b b2) rhs
      then ({ b1 with bstmts = b1.bstmts @ b2.bstmts }, rhs)
      else (b1, rhs @ [ b2 ]))
    (hd, []) tl

let rec fuse = function
  | [] -> []
  | hd :: tl ->
      let hd2, tl2 = merge_into_head hd tl in
      if hd = hd2 then hd :: fuse tl else fuse (hd2 :: tl2)

let promote locs stmts =
  List.map (fun s -> { bmode = mode_of locs s; bstmts = [ s ] }) stmts

let find_trigger t rel =
  match List.find_opt (fun tr -> String.equal tr.drelation rel) t.dtriggers with
  | Some tr -> tr
  | None -> invalid_arg ("Dprog.find_trigger: " ^ rel)

let jobs_and_stages t rel =
  let tr = find_trigger t rel in
  let stages =
    List.length (List.filter (fun b -> b.bmode = MDist) tr.blocks)
  in
  let jobs, _ =
    List.fold_left
      (fun (jobs, in_run) b ->
        match b.bmode with
        | MDist -> if in_run then (jobs, true) else (jobs + 1, true)
        | MLocal -> (jobs, false))
      (0, false) tr.blocks
  in
  (jobs, stages)

(* The plain trigger program over just the compute statements, in block
   order — what a node's [Runtime] compiles, and what EXPLAIN's
   access-path analysis runs on. *)
let compute_prog (t : t) =
  let triggers =
    List.map
      (fun tr ->
        {
          Prog.relation = tr.drelation;
          stmts =
            List.concat_map
              (fun b ->
                List.filter_map
                  (function Compute s -> Some s | Transfer _ -> None)
                  b.bstmts)
              tr.blocks;
        })
      t.dtriggers
  in
  { t.base with Prog.triggers = triggers }

let block_counts tr =
  List.fold_left
    (fun (l, d) b -> match b.bmode with MLocal -> (l + 1, d) | MDist -> (l, d + 1))
    (0, 0) tr.blocks

let pp_key ppf key =
  Format.fprintf ppf "<%s>"
    (String.concat "," (Array.to_list (Array.map string_of_int key)))

let pp_dstmt locs ppf s =
  let mode = match mode_of locs s with MLocal -> "LOCAL" | MDist -> "DISTRIBUTED" in
  match s with
  | Compute st ->
      Format.fprintf ppf "%-11s %s %s { %s }" mode st.Prog.target
        (match st.Prog.op with Prog.Add_to -> "+=" | Prog.Assign -> ":=")
        (String.concat ", " (Calc.map_refs st.Prog.rhs))
  | Transfer { tname; tkind; key; source } ->
      let kw =
        match tkind with
        | Scatter -> "SCATTER"
        | Repart -> "REPARTITION"
        | Gather -> "GATHER"
      in
      Format.fprintf ppf "%-11s %s := %s%a { %s }" mode tname kw pp_key key
        source

let pp ppf t =
  List.iter
    (fun tr ->
      Format.fprintf ppf "@[<v>ON UPDATE %s:@ " tr.drelation;
      List.iteri
        (fun i b ->
          Format.fprintf ppf "-- block %d (%s)@ " i
            (match b.bmode with MLocal -> "local" | MDist -> "distributed");
          List.iter
            (fun s -> Format.fprintf ppf "  %a@ " (pp_dstmt t.locs) s)
            b.bstmts)
        tr.blocks;
      Format.fprintf ppf "@]@.")
    t.dtriggers
