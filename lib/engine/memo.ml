type 'v t = {
  mutex : Mutex.t;
  table : (string, 'v) Hashtbl.t;
  mutable hits : int;
  mutable misses : int;
}

let create () =
  { mutex = Mutex.create (); table = Hashtbl.create 256; hits = 0; misses = 0 }

let locked t f =
  Mutex.lock t.mutex;
  Fun.protect ~finally:(fun () -> Mutex.unlock t.mutex) f

let find_opt t k =
  locked t (fun () ->
      match Hashtbl.find_opt t.table k with
      | Some _ as r ->
          t.hits <- t.hits + 1;
          r
      | None ->
          t.misses <- t.misses + 1;
          None)

let add t k v = locked t (fun () -> Hashtbl.replace t.table k v)
let length t = locked t (fun () -> Hashtbl.length t.table)
let hits t = locked t (fun () -> t.hits)
let misses t = locked t (fun () -> t.misses)
