open Bigarray

type chunk = (float, float64_elt, c_layout) Array1.t

let chunk_len = 65536

type t = {
  mutable full : chunk list;  (* newest first *)
  mutable cur : chunk;
  mutable pos : int;
  mutable len : int;
}

let new_chunk () = Array1.create float64 c_layout chunk_len
let create () = { full = []; cur = new_chunk (); pos = 0; len = 0 }

let push t x =
  if t.pos = chunk_len then begin
    t.full <- t.cur :: t.full;
    t.cur <- new_chunk ();
    t.pos <- 0
  end;
  Array1.unsafe_set t.cur t.pos x;
  t.pos <- t.pos + 1;
  t.len <- t.len + 1


let to_array t =
  let a = Array.make t.len 0.0 in
  let copy base (c : chunk) n =
    for i = 0 to n - 1 do
      a.(base + i) <- Array1.unsafe_get c i
    done
  in
  List.iteri (fun k c -> copy (k * chunk_len) c chunk_len) (List.rev t.full);
  copy (List.length t.full * chunk_len) t.cur t.pos;
  a
