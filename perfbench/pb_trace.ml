(* Spans recorded from the benchmark's side of each layer boundary:
   name, start, end, parent span and the request/trial id, kept in
   memory as parallel int vectors and written out when the run ends.
   A layer's busy time is the sum of its spans' self times (duration
   minus the durations of their child spans). *)

open Pb_util

type t = {
  mutable names : string list;  (* reversed: id = position from the end *)
  mutable name_count : int;
  name_ids : (string, int) Hashtbl.t;
  name : Ivec.t;
  start : Ivec.t;
  stop : Ivec.t;
  parent : Ivec.t;
  id : Ivec.t;
  mutable current : int;  (* innermost open span, -1 at top level *)
}

let create () =
  {
    names = [];
    name_count = 0;
    name_ids = Hashtbl.create 16;
    name = Ivec.create ();
    start = Ivec.create ();
    stop = Ivec.create ();
    parent = Ivec.create ();
    id = Ivec.create ();
    current = -1;
  }

let intern t s =
  match Hashtbl.find_opt t.name_ids s with
  | Some i -> i
  | None ->
      let i = t.name_count in
      Hashtbl.add t.name_ids s i;
      t.names <- s :: t.names;
      t.name_count <- i + 1;
      i

(* Open a span; returns its index, which [close] takes. *)
let open_ t name ~id =
  let k = Ivec.length t.name in
  Ivec.push t.name (intern t name);
  Ivec.push t.start (now_ns ());
  Ivec.push t.stop 0;
  Ivec.push t.parent t.current;
  Ivec.push t.id id;
  t.current <- k;
  k

let close t k =
  t.stop.Ivec.a.(k) <- now_ns ();
  t.current <- Ivec.get t.parent k

let span t name ~id f =
  let k = open_ t name ~id in
  match f () with
  | v ->
      close t k;
      v
  | exception e ->
      close t k;
      raise e

(* Self time per span name, in seconds. *)
let busy t =
  let n = Ivec.length t.name in
  let child = Array.make n 0 in
  for k = 0 to n - 1 do
    let p = Ivec.get t.parent k in
    if p >= 0 then
      child.(p) <- child.(p) + (Ivec.get t.stop k - Ivec.get t.start k)
  done;
  let by_name = Array.make t.name_count 0 in
  for k = 0 to n - 1 do
    let nm = Ivec.get t.name k in
    by_name.(nm) <-
      by_name.(nm) + (Ivec.get t.stop k - Ivec.get t.start k - child.(k))
  done;
  fun name ->
    match Hashtbl.find_opt t.name_ids name with
    | Some i -> secs_of_ns by_name.(i)
    | None -> 0.

(* Wall time covered by the spans named [name] (inclusive of children). *)
let total t name =
  match Hashtbl.find_opt t.name_ids name with
  | None -> 0.
  | Some i ->
      let s = ref 0 in
      for k = 0 to Ivec.length t.name - 1 do
        if Ivec.get t.name k = i then
          s := !s + (Ivec.get t.stop k - Ivec.get t.start k)
      done;
      secs_of_ns !s

(* One tab-separated line per span: index, name, start and end (ns on
   the monotonic clock), parent index (-1 for roots), request or trial
   id. *)
let write t path =
  let names = Array.of_list (List.rev t.names) in
  let oc = open_out path in
  output_string oc "span\tname\tstart_ns\tend_ns\tparent\tid\n";
  for k = 0 to Ivec.length t.name - 1 do
    Printf.fprintf oc "%d\t%s\t%d\t%d\t%d\t%d\n" k
      names.(Ivec.get t.name k)
      (Ivec.get t.start k) (Ivec.get t.stop k) (Ivec.get t.parent k)
      (Ivec.get t.id k)
  done;
  close_out oc
